package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// The error envelope's exact bytes are pinned here once; the serve and
// gateway golden tests pin that their handlers produce this same shape
// end to end.
func TestErrorEnvelopeGolden(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusNotFound, CodeNotFound, "000102030405060708090a0b0c0d0e0f", "unknown model %q", "nope")
	want := `{"error":"unknown model \"nope\"","code":"not_found","trace_id":"000102030405060708090a0b0c0d0e0f"}` + "\n"
	if got := rec.Body.String(); got != want {
		t.Fatalf("envelope:\n got %s\nwant %s", got, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}

	// Without a trace the field disappears rather than emptying.
	rec = httptest.NewRecorder()
	WriteError(rec, http.StatusBadRequest, "", "", "bad body")
	want = `{"error":"bad body","code":"bad_request"}` + "\n"
	if got := rec.Body.String(); got != want {
		t.Fatalf("untraced envelope:\n got %s\nwant %s", got, want)
	}
}

func TestParseErrorRoundTrip(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusTooManyRequests, CodeBudgetExhausted, "ff00", "budget spent")
	e, err := ParseError(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != CodeBudgetExhausted || e.Message != "budget spent" || e.TraceID != "ff00" {
		t.Fatalf("parsed %+v", e)
	}
	if !strings.Contains(e.Error(), "budget_exhausted") {
		t.Fatalf("Error() = %q", e.Error())
	}
	if _, err := ParseError([]byte(`{"status":"ok"}`)); err == nil {
		t.Fatal("non-envelope body parsed as envelope")
	}
	if _, err := ParseError([]byte("404 page not found\n")); err == nil {
		t.Fatal("mux text page parsed as envelope")
	}
}

func TestCodeForStatus(t *testing.T) {
	for status, want := range map[int]string{
		400: CodeBadRequest,
		404: CodeNotFound,
		413: CodeTooLarge,
		429: CodeOverCapacity,
		500: CodeInternal,
		501: CodeNotImplemented,
		502: CodeBadGateway,
		503: CodeUnavailable,
	} {
		if got := CodeForStatus(status); got != want {
			t.Errorf("CodeForStatus(%d) = %q, want %q", status, got, want)
		}
	}
}

func TestSplitModelOp(t *testing.T) {
	cases := []struct {
		in, name, op string
		ok           bool
	}{
		{"prod:audit", "prod", "audit", true},
		{"a:b:policy", "a:b", "policy", true},
		{"prod", "", "", false},
		{":audit", "", "", false},
		{"prod:", "", "", false},
	}
	for _, c := range cases {
		name, op, ok := SplitModelOp(c.in)
		if name != c.name || op != c.op || ok != c.ok {
			t.Errorf("SplitModelOp(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.in, name, op, ok, c.name, c.op, c.ok)
		}
	}
}

func TestDispatchModelOp(t *testing.T) {
	var gotName string
	ops := map[string]ModelOpHandler{
		"audit": func(w http.ResponseWriter, r *http.Request, name string) {
			gotName = name
			WriteJSON(w, http.StatusOK, map[string]string{"op": "audit"})
		},
		"load": func(w http.ResponseWriter, r *http.Request, name string) {},
	}
	rec := httptest.NewRecorder()
	DispatchModelOp(rec, httptest.NewRequest("POST", "/v1/models/x", nil), "m:audit", ops)
	if gotName != "m" || rec.Code != http.StatusOK {
		t.Fatalf("dispatch: name %q status %d", gotName, rec.Code)
	}

	rec = httptest.NewRecorder()
	DispatchModelOp(rec, httptest.NewRequest("POST", "/v1/models/x", nil), "m:nope", ops)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown op status %d", rec.Code)
	}
	e, err := ParseError(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// The known-op list is sorted, so the message is deterministic.
	if e.Code != CodeNotFound || !strings.Contains(e.Message, "{name}:audit or {name}:load") {
		t.Fatalf("unknown op envelope %+v", e)
	}
}

func TestBudgetLedger(t *testing.T) {
	l := NewBudgetLedger()
	if !l.Allow("m", "c", 3, 5) || !l.Allow("m", "c", 2, 5) {
		t.Fatal("spend within budget denied")
	}
	if l.Allow("m", "c", 1, 5) {
		t.Fatal("over-budget spend allowed")
	}
	if l.Used("m", "c") != 5 {
		t.Fatalf("used = %d", l.Used("m", "c"))
	}
	// Other clients and models have independent budgets.
	if !l.Allow("m", "c2", 5, 5) || !l.Allow("m2", "c", 5, 5) {
		t.Fatal("independent budget denied")
	}
	// No budget → no counting.
	if !l.Allow("free", "c", 1000, 0) || l.Used("free", "c") != 0 {
		t.Fatal("uncapped spend was counted")
	}
	// Reset re-arms one model only.
	l.Reset("m")
	if l.Used("m", "c") != 0 || !l.Allow("m", "c", 5, 5) {
		t.Fatal("reset did not re-arm")
	}
	if l.Allow("m2", "c", 1, 5) {
		t.Fatal("reset leaked across models")
	}
}

func TestBudgetLedgerOverflowCap(t *testing.T) {
	l := NewBudgetLedger()
	for i := 0; i < budgetMaxKeys; i++ {
		if !l.Allow("m", fmt.Sprintf("c%d", i), 1, 10) {
			t.Fatalf("client %d denied before cap", i)
		}
	}
	// Past the cap, fresh identities share the overflow budget instead of
	// minting new keys.
	for i := 0; i < 10; i++ {
		if !l.Allow("m", fmt.Sprintf("fresh%d", i), 1, 10) {
			t.Fatalf("overflow spend %d denied early", i)
		}
	}
	if l.Allow("m", "yet-another", 1, 10) {
		t.Fatal("overflow budget not shared")
	}
	if l.Used("m", OverflowClient) != 10 {
		t.Fatalf("overflow used = %d", l.Used("m", OverflowClient))
	}
}

// The predict schema round-trips and the defended shapes stay valid for a
// decoder of the full shape (class always present, scores optional).
func TestPredictSchemaRoundTrip(t *testing.T) {
	full := PredictResponse{
		API: Version, Model: "m", Digest: "d",
		Predictions: []Prediction{{Class: 2, Probs: []float64{0.1, 0.2, 0.7}, Logits: []float64{1, 2, 3}}},
	}
	label := PredictResponse{
		API: Version, Model: "m", Digest: "d", Mode: "label",
		Predictions: []Prediction{{Class: 2}},
	}
	for _, resp := range []PredictResponse{full, label} {
		raw, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		var back PredictResponse
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if back.Predictions[0].Class != 2 || back.API != Version {
			t.Fatalf("round trip %+v", back)
		}
	}
	raw, _ := json.Marshal(label.Predictions[0])
	if want := `{"class":2}`; string(raw) != want {
		t.Fatalf("label-only prediction = %s, want %s", raw, want)
	}
}
