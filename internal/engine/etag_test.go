package engine

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"opaq/internal/core"
	"opaq/internal/runio"
)

func etagTestEngine(t *testing.T) *Engine[int64] {
	t.Helper()
	eng, err := New[int64](Options{
		Config:  core.Config{RunLen: 256, SampleSize: 32},
		Stripes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func fetchSummary(t *testing.T, h http.Handler, ifNoneMatch string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/summary", nil)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestSummaryETagConditionalFetch pins the 304 protocol: the summary RPC
// carries a strong ETag, an If-None-Match hit answers 304 with no body,
// ingestion invalidates the tag, and the refetched body is byte-identical
// to a direct checkpoint.
func TestSummaryETagConditionalFetch(t *testing.T) {
	eng := etagTestEngine(t)
	codec := runio.Int64Codec{}
	h := NewHandlerCodec(eng, Int64Key, codec, HandlerOptions{})
	for i := int64(0); i < 1000; i++ {
		if err := eng.Ingest(i * 37); err != nil {
			t.Fatal(err)
		}
	}

	rec := fetchSummary(t, h, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("summary status %d", rec.Code)
	}
	etag := rec.Header().Get("ETag")
	if len(etag) < 4 || etag[0] != '"' || etag[len(etag)-1] != '"' {
		t.Fatalf("summary ETag %q is not a quoted entity tag", etag)
	}
	var want bytes.Buffer
	if err := eng.Checkpoint(&want, codec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("summary body differs from checkpoint (%d vs %d bytes)", rec.Body.Len(), want.Len())
	}

	// Conditional refetch with the current tag: 304, tag echoed, no body.
	rec = fetchSummary(t, h, etag)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("conditional refetch status %d, want 304", rec.Code)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("304 carried %d body bytes", rec.Body.Len())
	}
	if got := rec.Header().Get("ETag"); got != etag {
		t.Fatalf("304 ETag %q, want %q", got, etag)
	}

	// If-None-Match list forms and the wildcard also match.
	for _, header := range []string{`"zzz", ` + etag, "W/" + etag, "*"} {
		if rec := fetchSummary(t, h, header); rec.Code != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status %d, want 304", header, rec.Code)
		}
	}
	// A stale or foreign tag gets the full body.
	if rec := fetchSummary(t, h, `"stale-tag"`); rec.Code != http.StatusOK {
		t.Fatalf("stale-tag fetch status %d, want 200", rec.Code)
	}

	// Ingestion advances the version: the old tag must miss, the new body
	// must be the post-ingest checkpoint.
	if err := eng.Ingest(1 << 40); err != nil {
		t.Fatal(err)
	}
	rec = fetchSummary(t, h, etag)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-ingest conditional fetch status %d, want 200", rec.Code)
	}
	fresh := rec.Header().Get("ETag")
	if fresh == etag {
		t.Fatalf("ETag %q unchanged across an ingest", fresh)
	}
	want.Reset()
	if err := eng.Checkpoint(&want, codec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatal("post-ingest summary body differs from checkpoint")
	}
}

// TestSummaryETagDistinctAcrossInstances pins the restart-safety
// property the coordinator cache relies on: two engine instances never
// issue the same tag, even at identical ingest versions with identical
// data — a worker rebooted from a checkpoint must not 304 against bytes
// cached from its previous life.
func TestSummaryETagDistinctAcrossInstances(t *testing.T) {
	a, b := etagTestEngine(t), etagTestEngine(t)
	for _, eng := range []*Engine[int64]{a, b} {
		if err := eng.IngestBatch([]int64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	sa, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sa.Version != sb.Version {
		t.Fatalf("test setup: versions diverged (%d vs %d)", sa.Version, sb.Version)
	}
	if a.SummaryETag(sa) == b.SummaryETag(sb) {
		t.Fatalf("distinct engines issued the same ETag %q", a.SummaryETag(sa))
	}
}

// TestEtagMatch covers the header grammar corners directly.
func TestEtagMatch(t *testing.T) {
	const tag = `"abc.1"`
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{tag, true},
		{"*", true},
		{`"other"`, false},
		{`"other", ` + tag, true},
		{" " + tag + " ", true},
		{"W/" + tag, true},
		{`"abc.1`, false}, // unterminated quote is not our tag
	}
	for _, c := range cases {
		if got := etagMatch(c.header, tag); got != c.want {
			t.Errorf("etagMatch(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}
