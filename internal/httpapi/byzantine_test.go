package httpapi

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/encrypt"
	"dssp/internal/engine"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// TestByzantineNodeCannotForgeResults: the paper's security model says the
// DSSP must be prevented from tampering with master data. A malicious node
// that fabricates or corrupts an encrypted result cannot get it past the
// client: the SIV authentication fails on decryption. The forged reply is
// a well-formed frame, so the rejection must come from result
// authentication, not from the frame decoder.
func TestByzantineNodeCannotForgeResults(t *testing.T) {
	app := apps.Toystore()
	exps := map[string]template.Exposure{"Q2": template.ExpStmt} // results encrypted
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), exps)

	// A node that answers every query with attacker-chosen bytes.
	forged := wire.QueryResponse{Result: wire.SealedResult{Cipher: []byte("forged-ciphertext-bytes")}, Hit: true}
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(forged.AppendFrame(nil))
	}))
	defer evil.Close()

	var decoded wire.QueryResponse
	if err := decoded.DecodeFrame(forged.AppendFrame(nil)); err != nil {
		t.Fatalf("forged reply is not a valid frame: %v", err)
	}
	client := NewClient(codec, evil.URL, evil.Client())
	_, err := client.Query(context.Background(), app.Query("Q2"), 5)
	if err == nil {
		t.Fatal("forged encrypted result accepted by the client")
	}
	if !errors.Is(err, encrypt.ErrTampered) || errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("forged result rejected by the wrong check: %v", err)
	}
}

// TestByzantineNodeCannotSubstituteResults: replaying a legitimately
// sealed result for a *different* query domain is also rejected — the
// opaque payload and the result are bound to the keyring's domains.
func TestByzantineNodeCannotSubstituteOpaque(t *testing.T) {
	app := apps.Toystore()
	kr := encrypt.MustNewKeyring(make([]byte, encrypt.KeySize))
	codec := wire.NewCodec(app, kr, nil)

	// Seal a statement payload, then try to open it as a result.
	sq, err := codec.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.OpenResult(wire.SealedResult{Cipher: sq.Opaque}); err == nil {
		t.Fatal("statement ciphertext accepted as a result")
	}
}

// TestPlaintextResultIntegrityCaveat documents the deliberate design
// point: at view exposure the result is plaintext by the administrator's
// choice — the DSSP can read it, and a byzantine node could alter it. The
// defense at view exposure is contractual, not cryptographic; anything the
// administrator marks below view is tamper-evident.
func TestPlaintextResultIntegrityCaveat(t *testing.T) {
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	forged := &engine.Result{Columns: []string{"qty"}, Rows: [][]sqlparse.Value{{sqlparse.IntVal(9999)}}}
	got, err := codec.OpenResult(wire.SealedResult{Result: forged})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][0].Int != 9999 {
		t.Fatal("plaintext pass-through broken")
	}
}
