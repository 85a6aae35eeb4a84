package osdiversity

import (
	"os"
	"sync"
	"testing"
)

// fixtureDirs lists the directories of fixtures built once per test
// process (the footprint feeds, the warm-start corpus); TestMain
// removes them when every test and benchmark has run.
var fixtureDirs struct {
	sync.Mutex
	paths []string
}

// fixtureDir makes a directory for a once-per-process fixture.
func fixtureDir(pattern string) (string, error) {
	dir, err := os.MkdirTemp("", pattern)
	if err == nil {
		fixtureDirs.Lock()
		fixtureDirs.paths = append(fixtureDirs.paths, dir)
		fixtureDirs.Unlock()
	}
	return dir, err
}

func TestMain(m *testing.M) {
	code := m.Run()
	for _, dir := range fixtureDirs.paths {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}
