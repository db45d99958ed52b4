package httpapi

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestNewServerSetsTimeouts(t *testing.T) {
	h := http.NotFoundHandler()
	srv := NewServer("localhost:0", h)
	if srv.Addr != "localhost:0" || srv.Handler == nil {
		t.Fatalf("server = %+v, want addr and handler passed through", srv)
	}
	if srv.ReadHeaderTimeout != ReadHeaderTimeout || ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want the positive package constant %v", srv.ReadHeaderTimeout, ReadHeaderTimeout)
	}
	if srv.IdleTimeout != IdleTimeout || IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want the positive package constant %v", srv.IdleTimeout, IdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("whole-request timeouts set (%v read, %v write): they would cut long statements and replica streams short",
			srv.ReadTimeout, srv.WriteTimeout)
	}
}

// TestBinariesListenThroughNewServer scans the binaries' sources: a bare
// http.ListenAndServe or a hand-built http.Server — service or pprof
// listener alike — would bypass the server timeouts.
func TestBinariesListenThroughNewServer(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "cmd", "*", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no binary sources found (%v)", err)
	}
	listeners := 0
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, bare := range []string{"http.ListenAndServe(", "http.Server{", "http.Serve("} {
			if strings.Contains(string(src), bare) {
				t.Errorf("%s listens via %s…, not httpapi.NewServer", f, bare)
			}
		}
		listeners += strings.Count(string(src), "httpapi.NewServer(")
	}
	// dsspnode and dssprouter: service + pprof; dssphome: primary,
	// replica and pprof.
	if listeners < 7 {
		t.Errorf("found %d httpapi.NewServer listeners in the binaries, want at least 7", listeners)
	}
}
