package serve

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"incgraph/internal/graph"
	"incgraph/internal/sssp"
)

// TestWeightDomain pins the accepted edge-weight domain [0,
// graph.MaxEdgeWeight] at every input boundary: Batch.Validate, the text
// and binary graph readers, and POST /update. Accepted boundary weights
// must also compute correctly, incrementally and in batch.
func TestWeightDomain(t *testing.T) {
	cases := []struct {
		w  int64
		ok bool
	}{
		{-1, false},
		{0, true},
		{graph.MaxEdgeWeight, true},
		{graph.MaxEdgeWeight + 1, false},
		{math.MaxInt64, false},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprint(tc.w), func(t *testing.T) {
			ins := graph.Update{Kind: graph.InsertEdge, From: 2, To: 3, W: tc.w}
			if err := (graph.Batch{ins}).Validate(6); (err == nil) != tc.ok {
				t.Errorf("Validate: err %v, want ok=%v", err, tc.ok)
			}

			text := fmt.Sprintf("graph directed 3\ne 0 1 %d\ne 1 2 %d\n", tc.w, tc.w)
			g, err := graph.Read(strings.NewReader(text))
			if (err == nil) != tc.ok {
				t.Errorf("Read: err %v, want ok=%v", err, tc.ok)
			}
			if err == nil {
				if d := sssp.Dijkstra(g, 0); d[2] != 2*tc.w {
					t.Errorf("Dijkstra on read graph: dist[2] = %d, want %d", d[2], 2*tc.w)
				}
			}

			raw := graph.New(3, true)
			raw.InsertEdge(0, 1, tc.w)
			var bin bytes.Buffer
			if err := raw.WriteBinary(&bin); err != nil {
				t.Fatal(err)
			}
			if _, err := graph.ReadBinary(&bin); (err == nil) != tc.ok {
				t.Errorf("ReadBinary: err %v, want ok=%v", err, tc.ok)
			}

			svc, ts := newTestService(t)
			code, body := postUpdate(t, ts.URL+"/update?algo=sssp&wait=1", fmt.Sprintf("+ 2 3 %d\n", tc.w))
			if !tc.ok {
				if code != http.StatusBadRequest {
					t.Errorf("POST /update: status %d, want 400 (%s)", code, body)
				}
				return
			}
			if code != http.StatusOK {
				t.Fatalf("POST /update: status %d, want 200 (%s)", code, body)
			}
			view := svc.Get("sssp").View().Data.(SSSPView)
			mirror := graph.New(6, false)
			mirror.InsertEdge(0, 1, 2)
			mirror.InsertEdge(1, 2, 2)
			mirror.InsertEdge(2, 3, tc.w)
			if want := sssp.Dijkstra(mirror, 0); !reflect.DeepEqual(view.Dist, want) || view.Dist[3] != 4+tc.w {
				t.Errorf("sssp view %v, want %v with dist[3] = %d", view.Dist, want, 4+tc.w)
			}
		})
	}
}
