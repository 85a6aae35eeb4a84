package epoch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"osdiversity"
)

// fixture is a base analysis plus delta feed paths to reload with.
type fixture struct {
	base  *osdiversity.Analysis
	delta []string
	dir   string
}

func makeFixture(t *testing.T) *fixture {
	t.Helper()
	dir := t.TempDir()
	feeds, err := osdiversity.GenerateFeeds(filepath.Join(dir, "feeds"))
	if err != nil {
		t.Fatalf("GenerateFeeds: %v", err)
	}
	if len(feeds) < 2 {
		t.Fatalf("calibrated corpus spans only %d feed files", len(feeds))
	}
	base, err := osdiversity.LoadFeeds(feeds[:len(feeds)-1])
	if err != nil {
		t.Fatalf("LoadFeeds: %v", err)
	}
	return &fixture{base: base, delta: feeds[len(feeds)-1:], dir: dir}
}

func (fx *fixture) applyDelta(base *osdiversity.Analysis) (*osdiversity.Analysis, error) {
	return base.ApplyDelta(fx.delta)
}

// tables captures a byte-comparable answer set from an analysis.
func tables(t *testing.T, a *osdiversity.Analysis) []byte {
	t.Helper()
	rows, distinct := a.ValidityTable()
	raw, err := json.Marshal(map[string]any{
		"rows": rows, "distinct": distinct, "pairs": a.PairwiseOverlaps(),
	})
	if err != nil {
		t.Fatalf("marshal tables: %v", err)
	}
	return raw
}

func TestBootAndReloadSwap(t *testing.T) {
	fx := makeFixture(t)
	m := NewManager(Config{})

	if m.Ready() {
		t.Fatal("manager ready before Install")
	}
	if _, err := m.Reload("delta", fx.applyDelta); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Reload before boot: err = %v, want ErrNotReady", err)
	}
	if got := m.Status().Failures; got != 1 {
		t.Fatalf("failures = %d after pre-boot reload, want 1", got)
	}

	boot := m.Install(fx.base, "feeds")
	if boot.Seq != 1 || !m.Ready() {
		t.Fatalf("boot epoch seq = %d, ready = %v", boot.Seq, m.Ready())
	}
	before := tables(t, fx.base)

	e, err := m.Reload("delta", fx.applyDelta)
	if err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if e.Seq != 2 {
		t.Errorf("reloaded epoch seq = %d, want 2", e.Seq)
	}
	cur, ok := m.Current()
	if !ok || cur != e {
		t.Error("Current() is not the reloaded epoch")
	}
	if cur.Analysis == fx.base {
		t.Error("reload did not produce a new analysis")
	}
	if got := tables(t, fx.base); !bytes.Equal(before, got) {
		t.Error("reload mutated the old epoch's analysis")
	}
	st := m.Status()
	if st.Successes != 1 || st.Failures != 1 || st.Seq != 2 {
		t.Errorf("status = %+v, want 1 success, 1 failure, seq 2", st)
	}
}

// TestReloadFaultInjection drives every failure mode the tentpole
// names — corrupt delta feed, mid-build error, mid-build panic,
// post-build corruption, validation rejection, failed snapshot tee,
// even a panic at the swap hook — and asserts each one counts a
// failure, records the error, and leaves the exact same epoch pointer
// serving identical bytes.
func TestReloadFaultInjection(t *testing.T) {
	fx := makeFixture(t)
	corrupt := filepath.Join(fx.dir, "nvdcve-2.0-corrupt.xml.gz")
	if err := os.WriteFile(corrupt, []byte("this is not gzip"), 0o644); err != nil {
		t.Fatalf("write corrupt delta: %v", err)
	}

	cases := []struct {
		name    string
		cfg     Config
		build   BuildFunc
		errPart string
	}{
		{
			name: "corrupt delta feed",
			build: func(base *osdiversity.Analysis) (*osdiversity.Analysis, error) {
				return base.ApplyDelta([]string{corrupt})
			},
			errPart: "build attempt",
		},
		{
			name: "mid-build error",
			build: func(*osdiversity.Analysis) (*osdiversity.Analysis, error) {
				return nil, errors.New("synthetic build failure")
			},
			errPart: "synthetic build failure",
		},
		{
			name: "mid-build panic",
			build: func(*osdiversity.Analysis) (*osdiversity.Analysis, error) {
				panic("boom in build")
			},
			errPart: "reload panicked: boom in build",
		},
		{
			name: "post-build corruption detected",
			cfg: Config{Hooks: Hooks{AfterBuild: func(*osdiversity.Analysis) error {
				return errors.New("columns corrupted in flight")
			}}},
			errPart: "columns corrupted in flight",
		},
		{
			name: "validation rejection",
			cfg: Config{Validate: func(*osdiversity.Analysis) error {
				return errors.New("candidate failed deep validation")
			}},
			errPart: "candidate rejected",
		},
		{
			name: "failed snapshot tee",
			build: func(base *osdiversity.Analysis) (*osdiversity.Analysis, error) {
				return base.ApplyDelta(fx.delta,
					osdiversity.WithSnapshot(filepath.Join(fx.dir, "no-such-dir", "tee.osds")))
			},
			errPart: "build attempt",
		},
		{
			name:    "panic at swap hook",
			cfg:     Config{Hooks: Hooks{BeforeSwap: func() { panic("boom at swap") }}},
			errPart: "reload panicked: boom at swap",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var logs []string
			tc.cfg.Logf = func(format string, args ...any) {
				logs = append(logs, fmt.Sprintf(format, args...))
			}
			m := NewManager(tc.cfg)
			boot := m.Install(fx.base, "feeds")
			before := tables(t, boot.Analysis)

			build := tc.build
			if build == nil {
				build = fx.applyDelta
			}
			if _, err := m.Reload("delta", build); err == nil {
				t.Fatal("Reload succeeded, want failure")
			} else if !strings.Contains(err.Error(), tc.errPart) {
				t.Fatalf("error %q does not mention %q", err, tc.errPart)
			}

			cur, ok := m.Current()
			if !ok || cur != boot {
				t.Error("failed reload replaced the current epoch")
			}
			if got := tables(t, cur.Analysis); !bytes.Equal(before, got) {
				t.Error("failed reload changed the old epoch's answers")
			}
			st := m.Status()
			if st.Failures != 1 || st.Successes != 0 || st.Seq != 1 {
				t.Errorf("status = %+v, want exactly 1 failure on epoch 1", st)
			}
			if !strings.Contains(st.LastError, tc.errPart) || st.LastErrorUnix == 0 {
				t.Errorf("last error %q / unix %d not recorded", st.LastError, st.LastErrorUnix)
			}
			if len(logs) == 0 {
				t.Error("failure logged nothing")
			}

			// The manager must keep working: the same failed build again,
			// then a clean reload.
			if _, err := m.Reload("delta", build); err == nil {
				t.Fatal("second failed reload succeeded")
			}
			m2 := NewManager(Config{})
			m2.Install(fx.base, "feeds")
			if _, err := m2.Reload("delta", fx.applyDelta); err != nil {
				t.Fatalf("clean reload after failures: %v", err)
			}
		})
	}
}

func TestTransientErrorsRetryWithBackoff(t *testing.T) {
	fx := makeFixture(t)
	var slept []time.Duration
	fails := 2
	m := NewManager(Config{
		Sleep: func(d time.Duration) { slept = append(slept, d) },
		Hooks: Hooks{BeforeBuild: func() error {
			if fails > 0 {
				fails--
				return fmt.Errorf("open delta: %w", syscall.EAGAIN)
			}
			return nil
		}},
	})
	m.Install(fx.base, "feeds")
	e, err := m.Reload("delta", fx.applyDelta)
	if err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if e.Seq != 2 {
		t.Errorf("epoch seq = %d, want 2", e.Seq)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2 (one per transient failure)", len(slept))
	}
	// Jittered exponential backoff: attempt n sleeps within
	// [base*2^(n-1)/2, base*2^(n-1)].
	base := 50 * time.Millisecond
	for i, d := range slept {
		lo, hi := base/2, base
		if d < lo || d > hi {
			t.Errorf("backoff %d = %v outside [%v, %v]", i+1, d, lo, hi)
		}
		base *= 2
	}
	if st := m.Status(); st.Failures != 0 || st.Successes != 1 {
		t.Errorf("status = %+v, want retried success with no counted failure", st)
	}
}

func TestTransientRetriesAreBounded(t *testing.T) {
	fx := makeFixture(t)
	attempts := 0
	m := NewManager(Config{
		Retry: RetryPolicy{Attempts: 3, BaseDelay: time.Microsecond},
		Sleep: func(time.Duration) {},
		Hooks: Hooks{BeforeBuild: func() error {
			attempts++
			return fmt.Errorf("open delta: %w", syscall.EAGAIN)
		}},
	})
	m.Install(fx.base, "feeds")
	if _, err := m.Reload("delta", fx.applyDelta); err == nil {
		t.Fatal("Reload succeeded, want bounded failure")
	}
	if attempts != 3 {
		t.Errorf("build attempted %d times, want 3", attempts)
	}
	if st := m.Status(); st.Failures != 1 {
		t.Errorf("failures = %d, want 1 (retries count as one failure)", st.Failures)
	}
}

func TestPanicsAreNeverRetried(t *testing.T) {
	fx := makeFixture(t)
	attempts := 0
	m := NewManager(Config{Sleep: func(time.Duration) {}})
	m.Install(fx.base, "feeds")
	_, err := m.Reload("delta", func(*osdiversity.Analysis) (*osdiversity.Analysis, error) {
		attempts++
		panic(syscall.EAGAIN) // transient-looking, but panics never retry
	})
	if err == nil || attempts != 1 {
		t.Fatalf("err = %v, attempts = %d; want one failed attempt", err, attempts)
	}
}

func TestTryReloadWhileReloadInFlight(t *testing.T) {
	fx := makeFixture(t)
	m := NewManager(Config{})
	m.Install(fx.base, "feeds")

	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := m.Reload("slow", func(base *osdiversity.Analysis) (*osdiversity.Analysis, error) {
			close(entered)
			<-release
			return fx.applyDelta(base)
		})
		done <- err
	}()
	<-entered

	if _, err := m.TryReload("admin", fx.applyDelta); !errors.Is(err, ErrReloadInProgress) {
		t.Errorf("TryReload during reload: err = %v, want ErrReloadInProgress", err)
	}
	// Losing the race counts no failure: nothing was attempted.
	if st := m.Status(); st.Failures != 0 {
		t.Errorf("failures = %d after busy TryReload, want 0", st.Failures)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("background reload: %v", err)
	}
	if st := m.Status(); st.Successes != 1 || st.Seq != 2 {
		t.Errorf("status = %+v, want one success at seq 2", st)
	}
}

func TestSeqIsMonotonic(t *testing.T) {
	fx := makeFixture(t)
	m := NewManager(Config{})
	m.Install(fx.base, "feeds")
	var last uint64 = 1
	for i := 0; i < 3; i++ {
		e, err := m.Reload("delta", fx.applyDelta)
		if err != nil {
			t.Fatalf("Reload %d: %v", i, err)
		}
		if e.Seq != last+1 {
			t.Fatalf("seq %d after %d", e.Seq, last)
		}
		last = e.Seq
	}
}

func TestDefaultValidate(t *testing.T) {
	if err := DefaultValidate(nil); err == nil {
		t.Error("DefaultValidate(nil) = nil, want error")
	}
	empty, err := osdiversity.LoadFeeds(nil)
	if err != nil {
		t.Fatalf("LoadFeeds(nil): %v", err)
	}
	if err := DefaultValidate(empty); err == nil {
		t.Error("DefaultValidate(empty) = nil, want error")
	}
	fx := makeFixture(t)
	if err := DefaultValidate(fx.base); err != nil {
		t.Errorf("DefaultValidate(real analysis): %v", err)
	}
}

func TestTransient(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{fmt.Errorf("wrap: %w", syscall.EAGAIN), true},
		{fmt.Errorf("wrap: %w", syscall.EMFILE), true},
		{fmt.Errorf("wrap: %w", os.ErrNotExist), true},
		{errors.New("parse error"), false},
		{fmt.Errorf("wrap: %w", syscall.EACCES), false},
	} {
		if got := Transient(tc.err); got != tc.want {
			t.Errorf("Transient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
