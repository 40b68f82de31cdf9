package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// JSONL is a streaming JSON-lines file: one value per line — trivially
// greppable and loadable with any JSON-lines tooling. As a Sink it writes
// one Event per line; internal/trace writes its spans through Encode.
// Writes and Close are safe for concurrent use.
type JSONL struct {
	mu    sync.Mutex
	enc   *json.Encoder
	flush func() error
	close func() error
}

// NewJSONL wraps an io.Writer. If w is also an io.Closer it is closed by
// Close.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	j := &JSONL{enc: json.NewEncoder(bw), flush: bw.Flush}
	if c, ok := w.(io.Closer); ok {
		j.close = c.Close
	}
	return j
}

// CreateJSONL opens (truncating) path and returns a JSONL file writing to
// it.
func CreateJSONL(path string) (*JSONL, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: create jsonl trace: %w", err)
	}
	return NewJSONL(f), nil
}

// Encode writes each of vs as one line; no other call's line falls
// between them.
func (j *JSONL) Encode(vs ...any) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, v := range vs {
		if err := j.enc.Encode(v); err != nil {
			return err
		}
	}
	return nil
}

// Emit implements Sink.
func (j *JSONL) Emit(e Event) error { return j.Encode(e) }

// Close implements Sink.
func (j *JSONL) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.flush()
	if j.close != nil {
		if cerr := j.close(); err == nil {
			err = cerr
		}
	}
	return err
}
