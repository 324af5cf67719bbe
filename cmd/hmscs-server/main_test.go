package main

import (
	"net/http"
	"testing"
)

// TestUnknownFlagFails: a mistyped flag is an error, not a silently
// started server.
func TestUnknownFlagFails(t *testing.T) {
	if err := runMain([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestServerTimeouts: the built server bounds header reads and idle
// keep-alives, and sets no read or write timeout — event streams and
// lease long-polls stay open for as long as their jobs run.
func TestServerTimeouts(t *testing.T) {
	hs := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", hs.IdleTimeout, idleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %v, WriteTimeout = %v; both must stay 0 for streaming", hs.ReadTimeout, hs.WriteTimeout)
	}
}
