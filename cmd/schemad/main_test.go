package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe writer for capturing run's stderr
// while it executes concurrently.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var addrRE = regexp.MustCompile(`schemad listening on (http://[^\s]+)`)

// waitForAddr polls stderr for the announced listen address.
func waitForAddr(t *testing.T, buf *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := addrRE.FindStringSubmatch(buf.String()); m != nil {
			return m[1]
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("server never announced its address; stderr:\n%s", buf.String())
	return ""
}

// TestRunServesAndShutsDown boots the real daemon on an ephemeral
// port, ingests a record, then cancels the root context and checks
// the graceful-shutdown path returns cleanly.
func TestRunServesAndShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stderr syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-data-dir", t.TempDir()}, &stderr)
	}()
	base := waitForAddr(t, &stderr)

	resp, err := http.Post(base+"/v1/tenants/smoke/ingest", "application/x-ndjson",
		strings.NewReader(`{"a":1}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, rerr := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); rerr == nil {
		rerr = cerr
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after context cancellation")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	ctx := context.Background()
	var stderr syncBuffer
	if err := run(ctx, []string{"-on-error", "bogus"}, &stderr); err == nil {
		t.Error("run accepted -on-error bogus")
	}
	// The interned and plain ingest paths are picked per chunk from the
	// data; no flag selects between them.
	if err := run(ctx, []string{"-dedup"}, &stderr); err == nil {
		t.Error("run accepted -dedup")
	}
}
