package server

import (
	"encoding/base64"
	"encoding/json"
	"testing"
)

// FuzzParseBatchItem differentially tests the hand-rolled batch item
// scanner against its encoding/json fallback: for every input the two
// must agree on success/failure, and on success must produce identical
// parsedBatchOp values. The fast path bails to the slow path on
// anything it does not recognise, so any disagreement means the
// scanner accepted and mis-read something encoding/json handles
// differently — exactly the bug class a hand-rolled parser invites.
func FuzzParseBatchItem(f *testing.F) {
	seeds := []string{
		`{"op":"phi","u":1,"v":2}`,
		`{"op":"support","u":-3,"v":0}`,
		`{"op":"community_of","layer":"upper","vertex":7,"k":4}`,
		`{"op":"community_of","layer":"lower","vertex":0,"k":9223372036854775807}`,
		`{}`,
		`  { "op" : "phi" , "u" : 10 , "v" : 20 }  `,
		`{"op":"phi","u":1,"v":2,"extra":{"nested":[1,2,3]}}`,
		`{"op":"ph\u0069","u":1,"v":2}`,
		`{"u":01}`,
		`{"u":1.5}`,
		`{"u":1e3}`,
		`{"u":-}`,
		`{"u":-0}`,
		`{"u":9223372036854775808}`,
		`{"op":"phi","u":1,"v":2}trailing`,
		`{"op":"phi"`,
		`null`,
		`[1,2]`,
		`"phi"`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var fast, slow parsedBatchOp
		fastErr := parseBatchItem(raw, &fast)
		slowErr := slowParseBatchItem(raw, &slow)
		if (fastErr == nil) != (slowErr == nil) {
			t.Fatalf("parse disagreement on %q: fast err = %v, slow err = %v", raw, fastErr, slowErr)
		}
		if fastErr != nil {
			return
		}
		if fast != slow {
			t.Fatalf("value disagreement on %q:\n  fast: %+v\n  slow: %+v", raw, fast, slow)
		}
		// Interning must hold on both paths: known tokens share the
		// package constants, so echoes alias instead of allocating.
		if fast.op != intern(fast.op) || fast.layer != intern(fast.layer) {
			t.Fatalf("non-interned token on %q: op=%q layer=%q", raw, fast.op, fast.layer)
		}
	})
}

// TestParseBatchItemMatchesJSONSemantics pins one subtle agreement the
// fuzz seeds encode: inputs encoding/json rejects (leading zeros,
// floats into int fields, trailing garbage) must fail on the fast path
// too, not silently parse.
func TestParseBatchItemMatchesJSONSemantics(t *testing.T) {
	for _, bad := range []string{
		`{"u":01}`,
		`{"u":1.5}`,
		`{"u":1e3}`,
		`{"u":-}`,
		`{"op":"phi","u":1,"v":2}x`,
		`{"op":"phi"`,
	} {
		var p parsedBatchOp
		if err := parseBatchItem([]byte(bad), &p); err == nil {
			t.Errorf("parseBatchItem(%q) = nil error, want failure", bad)
		}
		var it batchItemJSON
		if err := json.Unmarshal([]byte(bad), &it); err == nil {
			t.Errorf("fixture is wrong: encoding/json accepts %q", bad)
		}
	}
}

// FuzzDecodeCursor checks the /communities cursor decoder on arbitrary
// tokens: it never panics, every token it accepts carries a
// non-negative offset and re-encodes to a token that decodes to the
// same values, and every encoded (k, offset >= 0) decodes back to
// itself.
func FuzzDecodeCursor(f *testing.F) {
	f.Add(encodeCursor(3, 100), int64(3), 100)
	f.Add(encodeCursor(-1, 0), int64(0), 0)
	f.Add("", int64(1<<62), 1<<40)
	f.Add("not base64!", int64(-5), 7)
	f.Add(base64.RawURLEncoding.EncodeToString([]byte("k=1&o=-1")), int64(1), 1)
	f.Add(base64.RawURLEncoding.EncodeToString([]byte("k=9223372036854775808&o=1")), int64(1), 1)
	f.Fuzz(func(t *testing.T, tok string, k int64, o int) {
		if dk, do, err := decodeCursor(tok); err == nil {
			if do < 0 {
				t.Fatalf("token %q accepted with offset %d", tok, do)
			}
			k2, o2, err := decodeCursor(encodeCursor(dk, do))
			if err != nil || k2 != dk || o2 != do {
				t.Fatalf("token %q: (%d, %d) re-decodes to (%d, %d, %v)", tok, dk, do, k2, o2, err)
			}
		}
		if o < 0 {
			return
		}
		k2, o2, err := decodeCursor(encodeCursor(k, o))
		if err != nil || k2 != k || o2 != o {
			t.Fatalf("(%d, %d) decodes to (%d, %d, %v)", k, o, k2, o2, err)
		}
	})
}

// FuzzDecodeBicliqueCursor does the same for the /bicliques cursor:
// accepted tokens carry thresholds >= 1 and a non-negative offset.
func FuzzDecodeBicliqueCursor(f *testing.F) {
	f.Add(encodeBicliqueCursor(2, 3, 100), 2, 3, 100)
	f.Add(encodeBicliqueCursor(1, 1, 0), 1, 1, 0)
	f.Add("", 0, 1, 1)
	f.Add("not base64!", 1<<40, 1<<40, 1<<40)
	f.Add(base64.RawURLEncoding.EncodeToString([]byte("mu=0&ml=1&o=1")), 1, 1, -1)
	f.Fuzz(func(t *testing.T, tok string, mu, ml, o int) {
		if dmu, dml, do, err := decodeBicliqueCursor(tok); err == nil {
			if dmu < 1 || dml < 1 || do < 0 {
				t.Fatalf("token %q accepted with (%d, %d, %d)", tok, dmu, dml, do)
			}
			mu2, ml2, o2, err := decodeBicliqueCursor(encodeBicliqueCursor(dmu, dml, do))
			if err != nil || mu2 != dmu || ml2 != dml || o2 != do {
				t.Fatalf("token %q: (%d, %d, %d) re-decodes to (%d, %d, %d, %v)", tok, dmu, dml, do, mu2, ml2, o2, err)
			}
		}
		if mu < 1 || ml < 1 || o < 0 {
			return
		}
		mu2, ml2, o2, err := decodeBicliqueCursor(encodeBicliqueCursor(mu, ml, o))
		if err != nil || mu2 != mu || ml2 != ml || o2 != o {
			t.Fatalf("(%d, %d, %d) decodes to (%d, %d, %d, %v)", mu, ml, o, mu2, ml2, o2, err)
		}
	})
}
