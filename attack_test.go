package osdiversity

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var set1Names = []string{"Windows2003", "Solaris", "Debian", "OpenBSD"}

// attackQueries are the attack and recommend questions the epoch and
// concurrency tests ask, each answering with its JSON: Set1 and a
// 16-replica configuration with an OS outside the paper's universe
// under attack, and two recommend searches over different windows.
var attackQueries = map[string]func(a *Analysis) (any, error){
	"set1": func(a *Analysis) (any, error) { return a.SimulateAttack("set1", set1Names, 1, 100) },
	"wide": func(a *Analysis) (any, error) {
		oses := append(append(a.OSNames(), "SynOS003"), a.OSNames()[:4]...)
		return a.SimulateAttack("wide", oses, 5, 60)
	},
	"recommend": func(a *Analysis) (any, error) { return a.Recommend(RecommendSpec{Trials: 20}) },
	"recommend3": func(a *Analysis) (any, error) {
		return a.Recommend(RecommendSpec{Trials: 10, Windows: 3, Beam: 3, Seed: 9})
	},
}

func attackAnswer(t *testing.T, a *Analysis, name string) []byte {
	t.Helper()
	v, err := attackQueries[name](a)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: marshal: %v", name, err)
	}
	return raw
}

// TestDiversityGainUnbrokenDiverse pins the DiversityGain fix: a
// diverse configuration the adversary never breaks (three of its OSes
// lie outside the calibrated universe, so only OpenBSD can fall) is an
// error naming the diverse side, not a 0x gain.
func TestDiversityGainUnbrokenDiverse(t *testing.T) {
	a := calibrated(t)
	diverse := []string{"OpenBSD", "SynOS000", "SynOS001", "SynOS002"}
	sum, err := a.SimulateAttack("diverse", diverse, 1, 50)
	if err != nil || sum.Unbroken != 50 {
		t.Fatalf("SimulateAttack = %+v, %v; want all 50 trials unbroken", sum, err)
	}
	gain, err := a.DiversityGain("Debian", diverse, 1, 50)
	if err == nil || !strings.Contains(err.Error(), "diverse") {
		t.Fatalf("DiversityGain = %v, %v; want an error naming the unbroken diverse side", gain, err)
	}
}

// TestApplyDeltaAttackMatchesColdBuild asserts that an epoch derived by
// ApplyDelta answers attack and recommend exactly as a cold build of
// base plus delta, even when the base's populations were already
// built.
func TestApplyDeltaAttackMatchesColdBuild(t *testing.T) {
	feeds, err := GenerateFeeds(filepath.Join(t.TempDir(), "feeds"), WithParallelism(2))
	if err != nil {
		t.Fatalf("GenerateFeeds: %v", err)
	}
	basePaths, deltaPaths := feeds[:len(feeds)-2], feeds[len(feeds)-2:]
	cold, err := LoadFeeds(feeds)
	if err != nil {
		t.Fatalf("LoadFeeds(all): %v", err)
	}
	base, err := LoadFeeds(basePaths, WithParallelism(2))
	if err != nil {
		t.Fatalf("LoadFeeds(base): %v", err)
	}
	for name := range attackQueries {
		attackAnswer(t, base, name)
	}
	merged, err := base.ApplyDelta(deltaPaths)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	for name := range attackQueries {
		if got, want := attackAnswer(t, merged, name), attackAnswer(t, cold, name); !bytes.Equal(got, want) {
			t.Errorf("%s after ApplyDelta differs from the cold build:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestConcurrentAttackAndRecommend races attack and recommend calls on
// one cold analysis at 4 workers (so the calls also race to build the
// population and its windows); every answer must equal the serial one.
func TestConcurrentAttackAndRecommend(t *testing.T) {
	serial, err := LoadCalibrated()
	if err != nil {
		t.Fatalf("LoadCalibrated: %v", err)
	}
	want := make(map[string][]byte)
	for name := range attackQueries {
		want[name] = attackAnswer(t, serial, name)
	}
	shared, err := LoadCalibrated(WithParallelism(4))
	if err != nil {
		t.Fatalf("LoadCalibrated: %v", err)
	}
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for name := range attackQueries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := attackQueries[name](shared)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				if got, _ := json.Marshal(v); !bytes.Equal(got, want[name]) {
					t.Errorf("concurrent %s differs from the serial answer", name)
				}
			}()
		}
	}
	wg.Wait()
}
