package cli

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestListenerClosesStalledHeaders pins the slow-client bound of the
// bitserved listeners: a connection that never finishes its request
// headers is closed once the header deadline passes instead of holding
// a server goroutine forever.
func TestListenerClosesStalledHeaders(t *testing.T) {
	srv := newHTTPServer("", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("listener timeouts = (%v, %v), want (%v, %v)",
			srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	// Shorten the header deadline so the test does not wait the full
	// production bound; the mechanism is the same.
	srv.ReadHeaderTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request line and one header, but never the blank line that ends
	// the header block.
	if _, err := io.WriteString(conn, "GET /v1/healthz HTTP/1.1\r\nHost: bitserved\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	n, err := conn.Read(make([]byte, 512))
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("stalled connection still open after 5s")
	}
	if err == nil {
		t.Fatalf("server answered %d bytes to an unfinished request, want the connection closed", n)
	}
	t.Logf("stalled connection closed after %v (%v)", time.Since(start).Round(time.Millisecond), err)
}
