// Package epoch holds the server's resident analysis behind an
// RCU-style atomic handle and runs hot reloads against it.
//
// The invariants the package exists to enforce:
//
//   - Readers never block and never observe a torn epoch: Current is one
//     atomic pointer load, and everything reachable from an *Epoch is
//     immutable once published.
//   - A reload builds and deep-validates the candidate analysis entirely
//     off to the side; the swap is a single pointer store, so in-flight
//     queries finish on the epoch they resolved at request start.
//   - Every reload failure degrades instead of dying: build errors,
//     panics anywhere on the reload path, validation rejections and
//     snapshot-tee failures each log one structured line, bump the
//     failure counter, and leave the previous epoch serving untouched.
//     Transient file errors retry with jittered bounded backoff first.
//
// Swapped-out epochs are intentionally never Closed here: queries may
// still be draining on them, and a delta-derived epoch shares no memory
// with its base, so the garbage collector reclaims old epochs once the
// last request lets go.
package epoch

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"osdiversity"
)

// Epoch is one immutable published generation of the resident analysis.
type Epoch struct {
	Analysis *osdiversity.Analysis
	// Seq is the monotonically increasing generation number, starting at
	// 1 for the boot epoch. Response caches key by it.
	Seq uint64
	// Source describes where this epoch's corpus came from.
	Source string
	// SwappedAt is when the epoch became current.
	SwappedAt time.Time
}

// BuildFunc builds a candidate analysis from the current one — typically
// base.ApplyDelta over freshly globbed delta feeds. It runs outside any
// lock held by readers; returning an error (or panicking) counts one
// reload failure and leaves base serving.
type BuildFunc func(base *osdiversity.Analysis) (*osdiversity.Analysis, error)

// RetryPolicy bounds the backoff loop for transient build errors.
type RetryPolicy struct {
	Attempts  int           // total attempts, including the first (default 3)
	BaseDelay time.Duration // first backoff (default 50ms)
	MaxDelay  time.Duration // backoff cap (default 2s)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// Hooks are fault-injection points on the reload path, in the spirit of
// snapshot's forceCopy test hook. All are optional and run on the
// reloading goroutine: BeforeBuild before each build attempt (an error
// is treated as a build error, so transient ones retry), AfterBuild
// between build and validation (to corrupt or reject a candidate), and
// BeforeSwap after validation just before the pointer store.
type Hooks struct {
	BeforeBuild func() error
	AfterBuild  func(*osdiversity.Analysis) error
	BeforeSwap  func()
}

// Config parameterizes a Manager. The zero value is production-ready.
type Config struct {
	// Validate deep-checks a candidate before the swap; nil selects
	// DefaultValidate.
	Validate func(*osdiversity.Analysis) error
	// Retry bounds the transient-error backoff loop.
	Retry RetryPolicy
	// Logf receives one structured line per reload outcome; nil discards.
	Logf func(format string, args ...any)
	// Sleep substitutes the backoff sleep in tests; nil selects
	// time.Sleep.
	Sleep func(time.Duration)
	// Hooks inject faults in tests; the zero value is inert.
	Hooks Hooks
}

// Manager owns the current epoch and serializes reloads against it.
type Manager struct {
	cfg Config

	cur atomic.Pointer[Epoch]
	mu  sync.Mutex // held for the whole reload critical section

	seq       atomic.Uint64
	successes atomic.Uint64
	failures  atomic.Uint64
	lastErr   atomic.Pointer[reloadFailure]
}

type reloadFailure struct {
	msg  string
	unix int64
}

// Status is the /corpus-visible reload accounting.
type Status struct {
	Seq           uint64
	Successes     uint64
	Failures      uint64
	LastError     string
	LastErrorUnix int64
}

// Reload outcome sentinels.
var (
	// ErrReloadInProgress reports a TryReload that lost the race to a
	// running reload.
	ErrReloadInProgress = errors.New("epoch: reload already in progress")
	// ErrNoDelta reports a reload trigger that found nothing to apply;
	// callers surface it without counting a failure.
	ErrNoDelta = errors.New("epoch: no delta feeds to apply")
	// ErrNotReady reports an operation that needs a resident epoch
	// before one was installed.
	ErrNotReady = errors.New("epoch: no epoch resident")
)

// NewManager builds a Manager; the zero Config selects the defaults.
func NewManager(cfg Config) *Manager {
	if cfg.Validate == nil {
		cfg.Validate = DefaultValidate
	}
	cfg.Retry = cfg.Retry.withDefaults()
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return &Manager{cfg: cfg}
}

// Install publishes a as the next epoch without building or validating —
// the boot path. Safe to call while queries run; they drain on whatever
// epoch they started with.
func (m *Manager) Install(a *osdiversity.Analysis, source string) *Epoch {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.install(a, source)
}

func (m *Manager) install(a *osdiversity.Analysis, source string) *Epoch {
	e := &Epoch{Analysis: a, Seq: m.seq.Add(1), Source: source, SwappedAt: time.Now()}
	m.cur.Store(e)
	return e
}

// Current returns the resident epoch; ok is false before the first
// Install (boot-from-feeds still loading).
func (m *Manager) Current() (*Epoch, bool) {
	e := m.cur.Load()
	return e, e != nil
}

// Status snapshots the reload counters.
func (m *Manager) Status() Status {
	st := Status{
		Seq:       m.seq.Load(),
		Successes: m.successes.Load(),
		Failures:  m.failures.Load(),
	}
	if f := m.lastErr.Load(); f != nil {
		st.LastError = f.msg
		st.LastErrorUnix = f.unix
	}
	return st
}

// TryReload builds, validates and swaps in a new epoch, returning the
// published epoch on success. It fails fast with ErrReloadInProgress
// when another reload is running.
func (m *Manager) TryReload(source string, build BuildFunc) (*Epoch, error) {
	if !m.mu.TryLock() {
		return nil, ErrReloadInProgress
	}
	defer m.mu.Unlock()
	return m.reloadLocked(source, build)
}

// reloadLocked runs one reload under m.mu. The named results let the
// outer recover turn a panic anywhere on the path — build, hooks,
// validation, even the swap bookkeeping — into one counted failure;
// panics are never retried.
func (m *Manager) reloadLocked(source string, build BuildFunc) (e *Epoch, err error) {
	cur := m.cur.Load()
	if cur == nil {
		return nil, m.fail(source, fmt.Errorf("%w: cannot reload before boot", ErrNotReady))
	}
	defer func() {
		if r := recover(); r != nil {
			e, err = nil, m.fail(source, fmt.Errorf("epoch: reload panicked: %v", r))
		}
	}()

	buildOnce := func() (*osdiversity.Analysis, error) {
		if m.cfg.Hooks.BeforeBuild != nil {
			if err := m.cfg.Hooks.BeforeBuild(); err != nil {
				return nil, err
			}
		}
		a, err := build(cur.Analysis)
		if err != nil {
			return nil, err
		}
		if m.cfg.Hooks.AfterBuild != nil {
			if err := m.cfg.Hooks.AfterBuild(a); err != nil {
				return nil, err
			}
		}
		return a, nil
	}

	var a *osdiversity.Analysis
	delay := m.cfg.Retry.BaseDelay
	for attempt := 1; ; attempt++ {
		a, err = buildOnce()
		if err == nil {
			break
		}
		if attempt >= m.cfg.Retry.Attempts || !Transient(err) {
			return nil, m.fail(source, fmt.Errorf("epoch: build attempt %d: %w", attempt, err))
		}
		m.cfg.Logf("epoch: reload source=%s attempt=%d transient error, retrying in %v: %v",
			source, attempt, delay, err)
		m.cfg.Sleep(jitter(delay))
		if delay *= 2; delay > m.cfg.Retry.MaxDelay {
			delay = m.cfg.Retry.MaxDelay
		}
	}

	if err := m.cfg.Validate(a); err != nil {
		return nil, m.fail(source, fmt.Errorf("epoch: candidate rejected: %w", err))
	}
	if m.cfg.Hooks.BeforeSwap != nil {
		m.cfg.Hooks.BeforeSwap()
	}
	e = m.install(a, source)
	m.successes.Add(1)
	m.cfg.Logf("epoch: reload ok source=%s epoch=%d valid=%d", source, e.Seq, a.ValidCount())
	return e, nil
}

// fail counts one reload failure, records it for /corpus, logs it, and
// returns the error.
func (m *Manager) fail(source string, err error) error {
	m.failures.Add(1)
	m.lastErr.Store(&reloadFailure{msg: err.Error(), unix: time.Now().Unix()})
	m.cfg.Logf("epoch: reload failed source=%s failures=%d: %v", source, m.failures.Load(), err)
	return err
}

// DefaultValidate is the swap gate: a candidate must exist, hold at
// least one valid record, and pass the exhaustive column self-check
// (which also warms its query indexes).
func DefaultValidate(a *osdiversity.Analysis) error {
	if a == nil {
		return errors.New("epoch: build returned no analysis")
	}
	if a.ValidCount() == 0 {
		return errors.New("epoch: candidate analysis holds no valid entries")
	}
	return a.SelfCheck()
}

// Transient reports whether a build error is worth retrying: the
// momentary filesystem conditions a delta-directory poll can hit while
// feeds are being written or the fd table is briefly exhausted.
func Transient(err error) bool {
	for _, errno := range []syscall.Errno{
		syscall.EAGAIN, syscall.EINTR, syscall.EBUSY, syscall.EMFILE, syscall.ENFILE,
	} {
		if errors.Is(err, errno) {
			return true
		}
	}
	return errors.Is(err, fs.ErrNotExist)
}

// jitter spreads a backoff over [d/2, d] so synchronized retry storms
// decorrelate.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int63n(half+1))
}
