package nvdfeed

// This file is the bounded-channel streaming pipeline behind
// StreamFiles, the one way feed files are decoded: entries flow from
// the XML tokenizer to the consumer through fixed-capacity channels, so
// feed sets far larger than memory ingest with a constant footprint.
// The pipeline has two shapes, both emitting entries in exact feed
// order (path order, in-file order) — the order a serial Reader.Next
// walk of the files yields:
//
//   - workers <= 1, or one file: one goroutine walks the files in
//     order and sends entries through the output window. With
//     workers > 1 the file's entries convert on the pool (see
//     Reader.emitAll).
//   - many files, workers > 1: up to `workers` files decode
//     concurrently, each into its own bounded channel; the collector
//     drains the per-file channels in path order.
//
// At most (workers + 1) × streamWindow entries are in flight at any
// moment (the per-file/stage windows plus the output window) — a
// constant, independent of feed volume.

import (
	"encoding/xml"
	"errors"
	"fmt"
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
// concurrently (or, for a single file, per-entry conversion fans out to
// the pool); memory in flight stays bounded by the channel windows
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
	// Cross-file fan-out already saturates the pool; forcing each file
	// to the sequential decoder avoids stacking the within-file pipeline
	// on top of it.
	perFileOpts := append(append([]ReaderOption(nil), opts...), Workers(1))
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
				fs.err = decodeInto(path, perFileOpts, fs.out, st.quit)
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
	return r.emitAll(func(e *cve.Entry) bool {
		select {
		case out <- e:
			return true
		case <-quit:
			return false
		}
	})
}

// convResult is one converted entry of the within-file pipeline.
type convResult struct {
	entry *cve.Entry
	err   error
}

// emitAll decodes the rest of the token stream, handing each entry to
// emit in feed order; emit returns false to stop early. The returned
// error is nil on a clean EOF or early stop. With one worker it walks
// Next. Otherwise it is a bounded two-stage decode: the tokenizer
// goroutine fills a window of raw <entry> elements, the worker pool
// converts them concurrently, and a collector emits the results in
// order. emitAll does not return until the tokenizer goroutine has
// exited, so the caller may close the underlying reader immediately
// afterwards. Nothing buffers the whole feed: at most streamWindow raw
// elements and their conversions are in flight.
func (r *Reader) emitAll(emit func(*cve.Entry) bool) error {
	if r.workers <= 1 {
		for {
			e, err := r.Next()
			if err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
			if !emit(e) {
				return nil
			}
		}
	}
	type job struct {
		raw xmlEntry
		fut chan convResult
	}
	tasks := make(chan job, streamWindow)
	futs := make(chan chan convResult, streamWindow)
	quit := make(chan struct{})
	decDone := make(chan struct{})
	defer func() {
		// Unwind the tokenizer on early exit, and never return while it
		// may still be reading r's underlying stream (the caller closes
		// the file next).
		close(quit)
		<-decDone
	}()

	// decodeErr is written by the tokenizer goroutine before it closes
	// futs, so the collector reads it safely after the range ends.
	var decodeErr error
	go func() {
		defer close(decDone)
		defer close(tasks)
		defer close(futs)
		for {
			raw, err := r.nextRaw()
			if err != nil {
				if !errors.Is(err, io.EOF) {
					decodeErr = err
				}
				return
			}
			if raw == nil {
				continue // lenient decode skip
			}
			fut := make(chan convResult, 1)
			select {
			case tasks <- job{raw: *raw, fut: fut}:
			case <-quit:
				return
			}
			select {
			case futs <- fut:
			case <-quit:
				return
			}
		}
	}()
	for i := 0; i < r.workers; i++ {
		go func() {
			for j := range tasks {
				e, err := j.raw.toEntry()
				j.fut <- convResult{entry: e, err: err}
			}
		}()
	}

	for fut := range futs {
		res := <-fut
		if res.err != nil {
			if r.lenient {
				r.noteSkip()
				continue
			}
			return res.err
		}
		if !emit(res.entry) {
			return nil
		}
	}
	return decodeErr
}

// nextRaw returns the next raw <entry> element, (nil, nil) for a
// leniently skipped undecodable element, or io.EOF at end of stream.
func (r *Reader) nextRaw() (*xmlEntry, error) {
	for {
		tok, err := r.dec.Token()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("nvdfeed: token: %w", err)
		}
		start, ok := tok.(xml.StartElement)
		if !ok || start.Name.Local != "entry" {
			continue
		}
		var raw xmlEntry
		if err := r.dec.DecodeElement(&raw, &start); err != nil {
			if r.lenient {
				r.noteSkip()
				return nil, nil
			}
			return nil, fmt.Errorf("nvdfeed: decode entry: %w", err)
		}
		return &raw, nil
	}
}
