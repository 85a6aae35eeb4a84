package scenario

import (
	"testing"

	"osdiversity/internal/core"
)

// BenchmarkRecommendSearch measures the full recommend pipeline on the
// calibrated corpus: beam selection over core's window matrices, the
// Monte Carlo survival ranking, and the BFT replay of the winner —
// the work behind one cold `osdiv recommend` / POST /api/recommend.
func BenchmarkRecommendSearch(b *testing.B) {
	eng := NewEngine(paperStudy(b), core.IsolatedThinServer)
	spec := testSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(spec); err != nil {
			b.Fatal(err)
		}
	}
}
