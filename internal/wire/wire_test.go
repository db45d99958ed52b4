package wire

import (
	"bytes"
	"strings"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/encrypt"
	"dssp/internal/engine"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
)

func testCodec(t testing.TB, exps map[string]template.Exposure) (*Codec, *template.App) {
	t.Helper()
	app := apps.Toystore()
	master := make([]byte, encrypt.KeySize)
	for i := range master {
		master[i] = byte(i)
	}
	return NewCodec(app, encrypt.MustNewKeyring(master), exps), app
}

func TestExposureDefaults(t *testing.T) {
	c, app := testCodec(t, nil)
	if c.ExposureOf(app.Query("Q1")) != template.ExpView {
		t.Error("query default should be view")
	}
	if c.ExposureOf(app.Update("U1")) != template.ExpStmt {
		t.Error("update default should be stmt")
	}
	c2, app2 := testCodec(t, map[string]template.Exposure{"Q1": template.ExpBlind})
	if c2.ExposureOf(app2.Query("Q1")) != template.ExpBlind {
		t.Error("explicit exposure ignored")
	}
}

func TestSealQueryView(t *testing.T) {
	c, app := testCodec(t, nil)
	q := app.Query("Q2")
	sq, err := c.SealQuery(q, []sqlparse.Value{sqlparse.IntVal(5)})
	if err != nil {
		t.Fatal(err)
	}
	if sq.TemplateID != "Q2" || len(sq.Params) != 1 {
		t.Errorf("view exposure must expose template and params: %+v", sq)
	}
	// Determinism: same instance, same key.
	sq2, _ := c.SealQuery(q, []sqlparse.Value{sqlparse.IntVal(5)})
	if sq.Key != sq2.Key {
		t.Error("keys not deterministic")
	}
	sq3, _ := c.SealQuery(q, []sqlparse.Value{sqlparse.IntVal(6)})
	if sq.Key == sq3.Key {
		t.Error("distinct params share a key")
	}
}

func TestSealQueryTemplate(t *testing.T) {
	c, app := testCodec(t, map[string]template.Exposure{"Q2": template.ExpTemplate})
	q := app.Query("Q2")
	sq, _ := c.SealQuery(q, []sqlparse.Value{sqlparse.IntVal(5)})
	if sq.TemplateID != "Q2" {
		t.Error("template exposure must expose the template")
	}
	if sq.Params != nil {
		t.Error("template exposure must hide params")
	}
	if strings.Contains(sq.Key, "5") && strings.Contains(sq.Key, sqlparse.IntVal(5).String()+"\x00") {
		t.Error("param value leaked into key")
	}
	sq2, _ := c.SealQuery(q, []sqlparse.Value{sqlparse.IntVal(5)})
	if sq.Key != sq2.Key {
		t.Error("keys not deterministic")
	}
}

func TestSealQueryBlind(t *testing.T) {
	c, app := testCodec(t, map[string]template.Exposure{"Q2": template.ExpBlind})
	sq, _ := c.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(5)})
	if sq.TemplateID != "" || sq.Params != nil {
		t.Errorf("blind exposure leaked information: %+v", sq)
	}
	if strings.Contains(sq.Key, "Q2") || strings.Contains(sq.Key, "toys") {
		t.Error("blind key leaks template identity")
	}
}

func TestSealUpdateLevels(t *testing.T) {
	c, app := testCodec(t, map[string]template.Exposure{"U2": template.ExpTemplate})
	su, err := c.SealUpdate(app.Update("U2"),
		[]sqlparse.Value{sqlparse.IntVal(1), sqlparse.StringVal("4111"), sqlparse.StringVal("15213")})
	if err != nil {
		t.Fatal(err)
	}
	if su.TemplateID != "U2" {
		t.Error("template exposure must expose the template id")
	}
	if su.Params != nil {
		t.Error("template exposure must hide update params")
	}
	c2, app2 := testCodec(t, nil)
	su2, _ := c2.SealUpdate(app2.Update("U1"), []sqlparse.Value{sqlparse.IntVal(5)})
	if su2.Params == nil {
		t.Error("stmt exposure must expose params")
	}
}

func TestSealRejectsWrongKind(t *testing.T) {
	c, app := testCodec(t, nil)
	if _, err := c.SealQuery(app.Update("U1"), nil); err == nil {
		t.Error("update sealed as query")
	}
	if _, err := c.SealUpdate(app.Query("Q1"), nil); err == nil {
		t.Error("query sealed as update")
	}
}

func TestOpenPayloadRoundTrip(t *testing.T) {
	c, app := testCodec(t, nil)
	params := []sqlparse.Value{sqlparse.IntVal(5)}
	sq, _ := c.SealQuery(app.Query("Q2"), params)
	tm, got, err := c.OpenPayload(sq.Opaque)
	if err != nil {
		t.Fatal(err)
	}
	if tm.ID != "Q2" || len(got) != 1 || !got[0].Equal(params[0]) {
		t.Errorf("payload round trip: %v %v", tm.ID, got)
	}
	// Tampering is rejected.
	bad := append([]byte{}, sq.Opaque...)
	bad[0] ^= 1
	if _, _, err := c.OpenPayload(bad); err == nil {
		t.Error("tampered payload accepted")
	}
}

func TestSealResultRoundTrip(t *testing.T) {
	res := &engine.Result{
		Columns: []string{"qty"},
		Rows:    [][]sqlparse.Value{{sqlparse.IntVal(25)}},
	}
	// Encrypted at stmt exposure.
	c, app := testCodec(t, map[string]template.Exposure{"Q2": template.ExpStmt})
	sr := c.SealResult(app.Query("Q2"), res)
	if sr.Result != nil || len(sr.Cipher) == 0 {
		t.Fatalf("stmt exposure must encrypt the result: %+v", sr)
	}
	got, err := c.OpenResult(sr)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint(true) != res.Fingerprint(true) {
		t.Error("result round trip changed content")
	}
	// Plaintext at view exposure.
	c2, app2 := testCodec(t, nil)
	sr2 := c2.SealResult(app2.Query("Q2"), res)
	if sr2.Result == nil {
		t.Error("view exposure must keep the result in the clear")
	}
	if sr2.Size() <= 0 || sr.Size() <= 0 {
		t.Error("sizes must be positive")
	}
}

func TestBlindKeyIncludesParams(t *testing.T) {
	c, app := testCodec(t, map[string]template.Exposure{"Q2": template.ExpBlind})
	a, _ := c.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(1)})
	b, _ := c.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(2)})
	if a.Key == b.Key {
		t.Error("blind keys must distinguish parameter values")
	}
	// Distinct templates never collide either.
	c2, app2 := testCodec(t, map[string]template.Exposure{"Q1": template.ExpBlind, "Q2": template.ExpBlind})
	x, _ := c2.SealQuery(app2.Query("Q1"), []sqlparse.Value{sqlparse.StringVal("5")})
	y, _ := c2.SealQuery(app2.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(5)})
	if x.Key == y.Key {
		t.Error("blind keys collide across templates")
	}
}

// TestKeyringsSeparateSealedStatements pins the isolation two
// applications get from distinct keyrings, even when they share a
// template set: the same statement seals to different ciphertexts at every
// exposure level, to different lookup keys wherever the key is keyed
// (blind and template exposure — at stmt and view exposure the key is
// the statement itself, in the clear by design), and neither side can
// open the other's payloads or results.
func TestKeyringsSeparateSealedStatements(t *testing.T) {
	app := apps.Toystore()
	params := []sqlparse.Value{sqlparse.IntVal(5)}
	res := &engine.Result{Columns: []string{"qty"}, Rows: [][]sqlparse.Value{{sqlparse.IntVal(25)}}}
	for _, exp := range []template.Exposure{template.ExpBlind, template.ExpTemplate, template.ExpStmt, template.ExpView} {
		exps := map[string]template.Exposure{"Q2": exp}
		a := NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), exps)
		other := make([]byte, encrypt.KeySize)
		other[0] = 1
		b := NewCodec(app, encrypt.MustNewKeyring(other), exps)

		sa, err := a.SealQuery(app.Query("Q2"), params)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.SealQuery(app.Query("Q2"), params)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(sa.Opaque, sb.Opaque) {
			t.Errorf("%v: two keyrings sealed the same statement to one ciphertext", exp)
		}
		if keyed := exp <= template.ExpTemplate; keyed && sa.Key == sb.Key {
			t.Errorf("%v: two keyrings sealed the same statement to one lookup key %q", exp, sa.Key)
		}
		if _, _, err := b.OpenPayload(sa.Opaque); err == nil {
			t.Errorf("%v: a foreign keyring opened the statement payload", exp)
		}
		if exp != template.ExpView {
			if _, err := b.OpenResult(a.SealResult(app.Query("Q2"), res)); err == nil {
				t.Errorf("%v: a foreign keyring opened the sealed result", exp)
			}
		}
	}
}
