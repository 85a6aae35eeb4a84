//go:build race

package core

// Race-instrumented runs still prove the engine race-clean, just on a
// smaller synthetic corpus so CI stays fast.
const syntheticTestEntries = 20_000

const syntheticTestEntriesShort = 5_000
