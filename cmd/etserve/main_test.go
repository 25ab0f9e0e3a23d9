package main

import (
	"net/http"
	"testing"
)

// TestNewHTTPServerBoundsConnections checks that the server etserve runs
// bounds slow request headers and idle keep-alive connections, and leaves
// the write side unbounded for the NDJSON stream.
func TestNewHTTPServerBoundsConnections(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer(":0", h)
	if srv.Addr != ":0" || srv.Handler != h {
		t.Fatalf("server addr/handler = %q/%v, want :0 and the given mux", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0: /simulate/stream writes for a whole run", srv.WriteTimeout)
	}
}
