package obs

import (
	"io"
	"sync"
)

// SyncWriter serializes writes to an underlying writer under one mutex, so
// diagnostic lines emitted from concurrent goroutines (parallel experiment
// workers reporting progress, sinks noting errors) never interleave
// mid-line. It buffers nothing: every Write reaches the underlying writer
// before returning, fixing the unflushed-writer variant of the same bug.
//
// All CLI diagnostic output (the -jobs stderr summary, per-experiment
// timing, trace summaries) goes through one SyncWriter per process; the
// experiment tables on stdout are untouched.
type SyncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewSyncWriter wraps w. A nil w yields a writer that discards.
func NewSyncWriter(w io.Writer) *SyncWriter {
	return &SyncWriter{w: w}
}

// Write forwards p to the underlying writer under the mutex. Callers
// should format a complete line (or group of lines) into one Write call —
// fmt.Fprintf does — so the lock brackets whole lines.
func (s *SyncWriter) Write(p []byte) (int, error) {
	if s == nil || s.w == nil {
		return len(p), nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
