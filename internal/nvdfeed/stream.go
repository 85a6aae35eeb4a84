package nvdfeed

// This file is the bounded-channel streaming pipeline behind
// StreamFiles, the one way feed files are decoded: entries flow from
// the scanner to the consumer through fixed-capacity channels, so feed
// sets far larger than memory ingest with a constant footprint. Each
// file decodes serially, and the pipeline has two shapes, both emitting
// entries in exact feed order (path order, in-file order) — the order a
// serial Reader.Next walk of the files yields:
//
//   - workers <= 1, or one file: one goroutine walks the files in
//     order and sends entries through the output window.
//   - many files, workers > 1: up to `workers` files decode
//     concurrently, each into its own bounded channel; the collector
//     drains the per-file channels in path order.
//
// At most (workers + 1) × streamWindow entries are in flight at any
// moment (the per-file windows plus the output window) — a constant,
// independent of feed volume.

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"osdiversity/internal/cve"
)

// streamWindow is the per-channel entry capacity of the pipeline — the
// lookahead bound between the decode and consume stages.
const streamWindow = 256

// SkipStats aggregates lenient-skip counts across every reader that an
// operation opens (StreamFiles spawns per-file readers internally, whose
// own Skipped() counters are unreachable). Attach one with
// WithSkipStats; the counter is safe for concurrent use.
type SkipStats struct {
	n atomic.Int64
}

// Skipped reports how many malformed entries lenient readers have
// dropped into this aggregate so far.
func (s *SkipStats) Skipped() int { return int(s.n.Load()) }

// WithSkipStats makes the reader add every lenient skip to st, in
// addition to its own Skipped counter. StreamFiles propagates the
// option to the readers it opens internally, so its callers can account
// for every dropped entry.
func WithSkipStats(st *SkipStats) ReaderOption {
	return func(r *Reader) { r.stats = st }
}

// Stream is a running feed pipeline built by StreamFiles. Consume the
// Entries channel until it closes, then check Err; a WithSkipStats
// aggregate holds the lenient-skip total. Close cancels the pipeline
// early (safe to call at any time, including after a full drain).
type Stream struct {
	ch       chan *cve.Entry
	err      error // written by the pipeline before ch closes
	quit     chan struct{}
	quitOnce sync.Once
}

// Entries returns the ordered entry channel. It closes when the feed
// set is exhausted, a terminal error occurs (see Err), or the stream is
// closed.
func (st *Stream) Entries() <-chan *cve.Entry { return st.ch }

// Err returns the terminal error of the pipeline: nil after a clean
// drain, the first decode/convert/open failure otherwise. Only valid
// once Entries has closed.
func (st *Stream) Err() error { return st.err }

// Close cancels the pipeline and releases its goroutines and file
// handles. It is idempotent and safe concurrently with consumption.
func (st *Stream) Close() {
	st.quitOnce.Do(func() { close(st.quit) })
}

// StreamFiles streams several feed files' entries in path order through
// a bounded pipeline. With Workers(n > 1) up to n files decode
// concurrently; memory in flight stays bounded by the channel windows
// regardless of the feed volume. Lenient skips count into any
// WithSkipStats aggregate.
func StreamFiles(paths []string, opts ...ReaderOption) *Stream {
	st := &Stream{
		ch:   make(chan *cve.Entry, streamWindow),
		quit: make(chan struct{}),
	}
	if workers := NewReader(nil, opts...).workers; workers > 1 && len(paths) > 1 {
		st.runMultiFile(paths, opts, workers)
		return st
	}
	go func() {
		defer close(st.ch)
		for _, path := range paths {
			if err := decodeInto(path, opts, st.ch, st.quit); err != nil {
				st.err = err
				return
			}
			select {
			case <-st.quit:
				return
			default:
			}
		}
	}()
	return st
}

// fileStream is one file's bounded leg of the multi-file fan-out.
type fileStream struct {
	out chan *cve.Entry
	err error // valid once out is closed
}

// runMultiFile decodes up to `workers` files concurrently, each into a
// bounded per-file channel, and drains them into the output channel in
// path order. Concurrency and lookahead are both governed by the files
// queue: a producer only spawns once its file is enqueued, and the
// queue holds workers-1 files beyond the one the collector is
// draining, so at most `workers` files decode at once. Crucially the
// head-of-line file's producer always runs — a separate semaphore
// acquired in spawn order could hand every slot to later files, whose
// full windows then wait on the collector, which waits on the head
// file: deadlock.
func (st *Stream) runMultiFile(paths []string, opts []ReaderOption, workers int) {
	files := make(chan *fileStream, workers-1)

	go func() {
		defer close(files)
		for _, path := range paths {
			fs := &fileStream{out: make(chan *cve.Entry, streamWindow)}
			select {
			case files <- fs:
			case <-st.quit:
				return
			}
			go func(path string, fs *fileStream) {
				defer close(fs.out)
				fs.err = decodeInto(path, opts, fs.out, st.quit)
			}(path, fs)
		}
	}()

	go func() {
		defer close(st.ch)
		for fs := range files {
			for e := range fs.out {
				select {
				case st.ch <- e:
				case <-st.quit:
					return
				}
			}
			if fs.err != nil {
				st.err = fs.err
				// Wake the remaining producers; they would otherwise
				// block on their full windows forever.
				st.Close()
				return
			}
		}
	}()
}

// decodeInto decodes one file into a bounded channel in feed order,
// stopping early when quit closes.
func decodeInto(path string, opts []ReaderOption, out chan<- *cve.Entry, quit <-chan struct{}) error {
	r, err := OpenFile(path, opts...)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		e, err := r.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		select {
		case out <- e:
		case <-quit:
			return nil
		}
	}
}
