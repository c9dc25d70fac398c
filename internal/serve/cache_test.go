package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"incgraph/internal/cc"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/serve/faults"
	"incgraph/internal/sssp"
)

// queryBody GETs /query/{algo} and returns the raw body, failing on a
// non-200 status or a Content-Length that disagrees with the body.
func queryBody(t *testing.T, base, algo string) []byte {
	t.Helper()
	body, err := fetchQuery(base, algo)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// fetchQuery is queryBody for goroutines that must not call t.Fatal.
func fetchQuery(base, algo string) ([]byte, error) {
	resp, err := http.Get(base + "/query/" + algo)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /query/%s: status %d: %s", algo, resp.StatusCode, body)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		return nil, fmt.Errorf("GET /query/%s: Content-Length %q for a %d-byte body", algo, cl, len(body))
	}
	return body, nil
}

// viewHead is the part of a /query body the cache tests inspect.
type viewHead struct {
	Epoch    uint64          `json:"epoch"`
	Degraded bool            `json:"degraded"`
	Data     json.RawMessage `json:"data"`
}

func parseHead(t *testing.T, body []byte) viewHead {
	t.Helper()
	var v viewHead
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("unparseable /query body %q: %v", body, err)
	}
	return v
}

func postBatch(t *testing.T, url string, b graph.Batch) {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBatch(&buf, b); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
}

// After every wait=1 update the /query body is exactly the encoder's
// output for the host's current view, at a later epoch, encoded once no
// matter how often it is read.
func TestQueryBodyTracksView(t *testing.T) {
	leakCheck(t)
	svc := NewService()
	h, err := svc.Host(SSSP(sssp.NewInc(gen.Synthetic(3, 40, 3, true), 0), 0), Options{MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer svc.Close()
	defer ts.Close()

	stream := makeStream(7, 40, 60)
	var prev uint64
	for i := 0; i < len(stream); i += 6 {
		postBatch(t, ts.URL+"/update?wait=1", stream[i:i+6])
		encodes := h.met.viewEncodes.Value()
		body := queryBody(t, ts.URL, "sssp")
		want, err := EncodeView(h.View())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("after update %d: /query body differs from EncodeView(h.View())\n got %s\nwant %s", i, body, want)
		}
		if bytes.Contains(body, []byte("\n ")) {
			t.Fatalf("/query body is indented: %q", body)
		}
		if e := parseHead(t, body).Epoch; e <= prev {
			t.Fatalf("after update %d: epoch %d did not advance past %d", i, e, prev)
		} else {
			prev = e
		}
		if again := queryBody(t, ts.URL, "sssp"); !bytes.Equal(again, body) {
			t.Fatal("a second read of an unchanged view returned different bytes")
		}
		if got := h.met.viewEncodes.Value() - encodes; got != 1 {
			t.Fatalf("two reads of one view encoded it %v times, want 1", got)
		}
	}
}

// gatedRecompute holds a heal inside Recompute until released, so the
// degraded republish that precedes it stays visible to readers.
type gatedRecompute struct {
	Serveable
	entered chan struct{}
	release chan struct{}
}

func (g *gatedRecompute) Recompute() {
	close(g.entered)
	<-g.release
	g.Serveable.Recompute()
}

// A panicking apply republishes the last good data at the same epoch,
// flagged degraded: a cache keyed by epoch would keep serving the
// healthy body, so /query must report "degraded":true — before "data",
// where header-only readers stop — and the heal must clear it again.
func TestQueryDegradedRepublish(t *testing.T) {
	leakCheck(t)
	inj := faults.New()
	inj.PanicOn("cc", 2)
	gated := &gatedRecompute{
		Serveable: CC(cc.NewInc(gen.Synthetic(5, 30, 3, false))),
		entered:   make(chan struct{}),
		release:   make(chan struct{}),
	}
	svc := NewService()
	h, err := svc.Host(gated, Options{MaxWait: time.Millisecond, BeforeApply: inj.BeforeApply})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer svc.Close()
	defer ts.Close()
	// Release runs before Close on every path, so a failed check cannot
	// leave the apply loop parked in Recompute.
	release := sync.OnceFunc(func() { close(gated.release) })
	defer release()

	postBatch(t, ts.URL+"/update?wait=1", graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 7, W: 1}})
	healthy := queryBody(t, ts.URL, "cc")
	before := parseHead(t, healthy)
	if before.Degraded || before.Epoch != 1 {
		t.Fatalf("before the fault: epoch %d degraded %v", before.Epoch, before.Degraded)
	}

	// The second apply panics; the heal then blocks in Recompute, after
	// the degraded view is published.
	postBatch(t, ts.URL+"/update", graph.Batch{{Kind: graph.InsertEdge, From: 1, To: 8, W: 1}})
	select {
	case <-gated.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the injected panic never reached the heal")
	}
	body := queryBody(t, ts.URL, "cc")
	got := parseHead(t, body)
	if !got.Degraded || got.Epoch != before.Epoch {
		t.Fatalf("during the heal: epoch %d degraded %v, want epoch %d degraded", got.Epoch, got.Degraded, before.Epoch)
	}
	if want, _ := EncodeView(h.View()); !bytes.Equal(body, want) {
		t.Fatalf("degraded body differs from EncodeView(h.View())\n got %s\nwant %s", body, want)
	}
	if d, a := bytes.Index(body, []byte(`"degraded"`)), bytes.Index(body, []byte(`"data"`)); d < 0 || d > a {
		t.Fatalf(`"degraded" must precede "data": %s`, body)
	}

	release()
	if err := h.WithState(func(Serveable) error { return nil }); err != nil { // barrier: the heal has published
		t.Fatal(err)
	}
	healed := parseHead(t, queryBody(t, ts.URL, "cc"))
	if healed.Degraded || healed.Epoch != 2 {
		t.Fatalf("after the heal: epoch %d degraded %v, want epoch 2 healthy", healed.Epoch, healed.Degraded)
	}
}

// Readers racing ingest always get a whole body, never see an epoch go
// backwards, and never cause a view to be encoded twice.
func TestQueryConcurrentReaders(t *testing.T) {
	leakCheck(t)
	const (
		nodes   = 300
		readers = 8
		batches = 60
	)
	svc := NewService()
	mk := func() *graph.Graph { return gen.Synthetic(9, nodes, 3, false) }
	hosts := make([]*Host, 0, 2)
	for _, m := range []Serveable{SSSP(sssp.NewInc(mk(), 0), 0), CC(cc.NewInc(mk()))} {
		h, err := svc.Host(m, Options{MaxWait: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
	}
	ts := httptest.NewServer(svc.Handler())
	defer svc.Close()
	defer ts.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			algo := hosts[r%len(hosts)].Algo()
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				body, err := fetchQuery(ts.URL, algo)
				if err != nil {
					t.Error(err)
					return
				}
				var v viewHead
				if err := json.Unmarshal(body, &v); err != nil {
					t.Errorf("reader %d: unparseable body: %v", r, err)
					return
				}
				if v.Epoch < last {
					t.Errorf("reader %d: %s epoch went back from %d to %d", r, algo, last, v.Epoch)
					return
				}
				last = v.Epoch
			}
		}(r)
	}
	stream := makeStream(11, nodes, batches*8)
	for i := 0; i < len(stream); i += 8 {
		postBatch(t, ts.URL+"/update", stream[i:i+8])
	}
	for _, h := range hosts {
		if err := h.WithState(func(Serveable) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	for _, h := range hosts {
		views := float64(h.Stats().BatchesApplied + 1)
		if enc := h.met.viewEncodes.Value(); enc > views {
			t.Errorf("%s: %v encodes for %v published views", h.Algo(), enc, views)
		}
	}
}
