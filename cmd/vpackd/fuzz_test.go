package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzHandleProfile fuzzes the body of POST /v1/profiles/m88ksim against
// one test daemon whose batch is too large for any repack to run. The
// seed corpus (testdata/fuzz/FuzzHandleProfile) holds a valid post in
// postSpots' encoding, the same post truncated, and the same post with
// a stale program hash. Every answer must be a client-side verdict —
// 200, 400, 409, 413 or 422, never a 5xx or a panic — and a 200's ack
// must count exactly the hot spots the body carried.
func FuzzHandleProfile(f *testing.F) {
	d, _ := newTestDaemon(f, 1<<30)
	h := d.Handler()
	st := d.programs["m88ksim"]
	valid, err := json.Marshal(profilePost{ProgramHash: st.hash, HotSpots: captureSpots(f, d, "m88ksim")[:1]})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Fuzz(func(t *testing.T, body []byte) {
		st.mu.Lock()
		before := st.records
		st.mu.Unlock()
		req := httptest.NewRequest("POST", "/v1/profiles/m88ksim", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		switch w.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			return
		default:
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		// The handler decodes the first JSON value of the body, as here.
		var post profilePost
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&post); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		var ack profileAck
		if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil {
			t.Fatalf("ack: %v: %s", err, w.Body.String())
		}
		if want := before + int64(len(post.HotSpots)); ack.Records != want {
			t.Fatalf("ack records %d after posting %d hot spots onto %d, want %d", ack.Records, len(post.HotSpots), before, want)
		}
	})
}
