package main

import (
	"testing"

	"senss/internal/serve"
)

// TestServerBoundsHeaderReads checks that the HTTP server cmdServe runs
// gives up on a client that stalls before finishing its headers.
func TestServerBoundsHeaderReads(t *testing.T) {
	srv := serve.New(serve.Options{})
	defer srv.Close()
	if got := newHTTPServer(srv).ReadHeaderTimeout; got <= 0 || got != readHeaderTimeout {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", got, readHeaderTimeout)
	}
}
