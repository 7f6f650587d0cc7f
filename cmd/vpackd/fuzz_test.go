package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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

// TestFuzzHandleProfileSeeds pins the verdict each checked-in seed gets,
// which FuzzHandleProfile's oracle alone accepts either way: the valid
// post is ingested, the truncated one is undecodable and the stale-hash
// one names another build. The seeds are literal v1 bodies written by an
// independent encoder, so a change to the ingest record's JSON shows here.
func TestFuzzHandleProfileSeeds(t *testing.T) {
	d, _ := newTestDaemon(t, 1<<30)
	h := d.Handler()
	for seed, want := range map[string]int{
		"valid":      http.StatusOK,
		"truncated":  http.StatusBadRequest,
		"stale_hash": http.StatusConflict,
	} {
		t.Run(seed, func(t *testing.T) {
			body := readFuzzSeed(t, filepath.Join("testdata", "fuzz", "FuzzHandleProfile", seed))
			req := httptest.NewRequest("POST", "/v1/profiles/m88ksim", bytes.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != want {
				t.Fatalf("status %d, want %d: %s", w.Code, want, w.Body.String())
			}
		})
	}
}

// readFuzzSeed decodes a one-value "go test fuzz v1" corpus file holding
// a []byte.
func readFuzzSeed(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(data)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s: not a one-[]byte fuzz corpus file", path)
	}
	body, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(body)
}
