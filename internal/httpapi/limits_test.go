package httpapi

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/home"
	"dssp/internal/homeserver"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/wire"
)

// zeros is an endless reader of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestOversizedFramesRefused posts a body one byte past MaxFrameBytes to
// every route that decodes a frame — once with the length declared up
// front, once chunked so only reading can find it — and expects 413 each
// time, with every server goroutine gone after shutdown.
func TestOversizedFramesRefused(t *testing.T) {
	before := runtime.NumGoroutine()
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	homeSrv := httptest.NewServer(HomeHandler(homeserver.New(storage.NewDatabase(app.Schema), app, codec)))
	repSrv := httptest.NewServer(ReplicaHandler(home.NewReplica("r", storage.NewDatabase(app.Schema), app, codec)))
	analysis := core.Analyze(app, core.DefaultOptions())
	node := dssp.NewNode(app, analysis, cache.Options{})
	nodeSrv := httptest.NewServer(NewNodeServer(node, homeSrv.URL, nil).Handler())
	routerSrv := httptest.NewServer(NewRouterServer(analysis, []string{nodeSrv.URL}, RouterOptions{}).Handler())
	servers := []*httptest.Server{routerSrv, nodeSrv, repSrv, homeSrv}

	routes := []string{
		nodeSrv.URL + PathQuery, nodeSrv.URL + PathUpdate, nodeSrv.URL + PathInvalidate,
		routerSrv.URL + PathQuery, routerSrv.URL + PathUpdate,
		homeSrv.URL + PathExecQuery, homeSrv.URL + PathExecUpdate,
		repSrv.URL + PathExecQuery, repSrv.URL + PathReplicaApply,
	}
	// Expect: 100-continue lets a server refuse a declared-oversize body
	// before the client streams it, so the 413 is read, not raced by a
	// reset connection.
	client := &http.Client{Transport: &http.Transport{ExpectContinueTimeout: 5 * time.Second}}
	declared := make([]byte, MaxFrameBytes+1)
	for _, url := range routes {
		for _, mode := range []string{"declared", "chunked"} {
			var body io.Reader = bytes.NewReader(declared)
			if mode == "chunked" {
				body = io.LimitReader(zeros{}, MaxFrameBytes+1)
			}
			req, err := http.NewRequest(http.MethodPost, url, body)
			if err != nil {
				t.Fatal(err)
			}
			if mode == "declared" {
				req.Header.Set("Expect", "100-continue")
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatalf("%s (%s): %v", url, mode, err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("%s (%s): status %d, want 413", url, mode, resp.StatusCode)
			}
		}
	}
	client.CloseIdleConnections()
	for _, s := range servers {
		s.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines: %d before, %d after shutdown", before, n)
	}
}

// TestOversizedResponseRefused: the client applies the same bound to the
// response it reads, so a node streaming an endless reply fails the call
// instead of exhausting the client's memory.
func TestOversizedResponseRefused(t *testing.T) {
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(w, io.LimitReader(zeros{}, MaxFrameBytes+2))
	}))
	defer evil.Close()
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	_, err := NewClient(codec, evil.URL, evil.Client()).Query(context.Background(), app.Query("Q2"), 5)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized response: err = %v", err)
	}
}

// BenchmarkHTTPHit measures one client→node cache hit over loopback HTTP,
// both processes' work included: seal, query frame, node lookup, response
// frame, open. scripts/alloc_smoke.sh gates its allocs/op against
// BENCH_allocs.json.
func BenchmarkHTTPHit(b *testing.B) {
	client, db, done := stack(b, nil)
	defer done()
	seedToys(b, db)
	q := apps.Toystore().Query("Q2")
	ctx := context.Background()
	if r, err := client.Query(ctx, q, 5); err != nil || r.Outcome.Hit {
		b.Fatalf("warm-up miss: %+v %v", r, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := client.Query(ctx, q, 5)
		if err != nil || !r.Outcome.Hit {
			b.Fatalf("query %d: hit=%v err=%v", i, err == nil && r.Outcome.Hit, err)
		}
	}
}

// TestMalformedSeqHeadersRefused: a freshness header that is present but
// not one unsigned integer is refused with 400 instead of read as 0. On a
// replica, 0 would mean serving with no freshness check; on a node, an
// invalidation that never raises the floor. An absent header still
// means 0.
func TestMalformedSeqHeadersRefused(t *testing.T) {
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	db := storage.NewDatabase(app.Schema)
	seedToys(t, db)
	rep := home.NewReplica("r", db, app, codec)
	repSrv := httptest.NewServer(ReplicaHandler(rep))
	defer repSrv.Close()
	homeSrv := httptest.NewServer(HomeHandler(homeserver.New(storage.NewDatabase(app.Schema), app, codec)))
	defer homeSrv.Close()
	node := dssp.NewNode(app, core.Analyze(app, core.DefaultOptions()), cache.Options{})
	nodeSrv := httptest.NewServer(NewNodeServer(node, homeSrv.URL, nil).Handler())
	defer nodeSrv.Close()

	sq, err := codec.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(1)})
	if err != nil {
		t.Fatal(err)
	}
	su, err := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(1)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, url, header string
		body              []byte
	}{
		{"replica exec", repSrv.URL + PathExecQuery, MinSeqHeader, encodeFrame(sq)},
		{"node invalidate", nodeSrv.URL + PathInvalidate, ConfirmSeqHeader, encodeFrame(su)},
	}
	for _, c := range cases {
		for _, tc := range []struct {
			vals []string
			want int
		}{
			{nil, http.StatusOK},
			{[]string{"0"}, http.StatusOK},
			{[]string{"seven"}, http.StatusBadRequest},
			{[]string{"-1"}, http.StatusBadRequest},
			{[]string{""}, http.StatusBadRequest},
			{[]string{"0", "9"}, http.StatusBadRequest},
		} {
			req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", frameContentType)
			for _, v := range tc.vals {
				req.Header.Add(c.header, v)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s with %s %q: status %d, want %d", c.name, c.header, tc.vals, resp.StatusCode, tc.want)
			}
		}
	}
	if served := rep.QueriesServed(); served != 2 {
		t.Errorf("replica served %d queries, want 2 (the two well-formed floors)", served)
	}
}

// TestAdminBodiesBounded: the JSON admin routes read at most
// MaxAdminBodyBytes and answer a larger body with 413, and a malformed
// small one with 400.
func TestAdminBodiesBounded(t *testing.T) {
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	hub := NewReplicaHub(nil, nil)
	defer hub.Close()
	homeSrv := httptest.NewServer(HomeHandlerWithHub(homeserver.New(storage.NewDatabase(app.Schema), app, codec), hub))
	defer homeSrv.Close()
	analysis := core.Analyze(app, core.DefaultOptions())
	routerSrv := httptest.NewServer(NewRouterServer(analysis, []string{homeSrv.URL}, RouterOptions{}).Handler())
	defer routerSrv.Close()

	huge := `{"url": "http://` + strings.Repeat("a", MaxAdminBodyBytes) + `"}`
	for _, url := range []string{routerSrv.URL + PathRingJoin, routerSrv.URL + PathRingLeave, homeSrv.URL + PathReplicaRegister} {
		for _, tc := range []struct {
			body string
			want int
		}{
			{huge, http.StatusRequestEntityTooLarge},
			{`{"url": `, http.StatusBadRequest},
			{`{}`, http.StatusBadRequest},
		} {
			resp, err := http.Post(url, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s with a %d-byte body: status %d, want %d", url, len(tc.body), resp.StatusCode, tc.want)
			}
		}
	}
	if st := hub.Status(); len(st.Replicas) != 0 {
		t.Errorf("refused registrations reached the hub: %+v", st)
	}
}
