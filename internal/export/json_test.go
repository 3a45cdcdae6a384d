package export

import (
	"strings"
	"testing"

	"selfishnet/internal/core"
	"selfishnet/internal/metric"
)

func TestInstanceDocRoundTripPoints(t *testing.T) {
	space, err := metric.NewPoints([][]float64{{0, 0}, {1, 0}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(space, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewProfile(3)
	_ = p.AddLink(0, 1)
	_ = p.AddLink(2, 0)

	var sb strings.Builder
	if err := DocFor(inst, p).WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	doc, err := ReadInstanceDoc(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	inst2, err := doc.Instance()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := doc.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if inst2.N() != 3 || inst2.Alpha() != 3.5 {
		t.Fatalf("instance round-trip wrong: n=%d α=%f", inst2.N(), inst2.Alpha())
	}
	if !p2.Equal(p) {
		t.Fatalf("profile round-trip wrong: %v vs %v", p2, p)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if inst2.Distance(i, j) != inst.Distance(i, j) {
				t.Fatalf("distance mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestInstanceDocRoundTripMatrix(t *testing.T) {
	space, err := metric.Uniform(4)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(space, 1, core.WithModel(core.DistanceModel), core.WithUndirected())
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewProfile(4)
	_ = p.AddLink(1, 3)

	var sb strings.Builder
	if err := DocFor(inst, p).WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	doc, err := ReadInstanceDoc(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Matrix) != 4 || len(doc.Points) != 0 {
		t.Fatalf("expected matrix form, got %+v", doc)
	}
	inst2, err := doc.Instance()
	if err != nil {
		t.Fatal(err)
	}
	if inst2.Model().Name() != "distance" || !inst2.Undirected() {
		t.Fatal("model/undirected flags lost in round-trip")
	}
}

func TestReadInstanceDocErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":       `{`,
		"unknown field":  `{"alpha": 1, "points": [[0],[1]], "links": [], "bogus": 3}`,
		"both spaces":    `{"alpha": 1, "points": [[0],[1]], "matrix": [[0,1],[1,0]], "links": []}`,
		"no space":       `{"alpha": 1, "links": []}`,
		"self link":      `{"alpha": 1, "points": [[0],[1]], "links": [[0,0]]}`,
		"bad link index": `{"alpha": 1, "points": [[0],[1]], "links": [[0,5]]}`,
		"bad model":      `{"alpha": 1, "model": "nope", "points": [[0],[1]], "links": []}`,
		"neg alpha":      `{"alpha": -2, "points": [[0],[1]], "links": []}`,
		"bad metric":     `{"alpha": 1, "matrix": [[0,9],[9,0],[0,0]], "links": []}`,
	}
	for name, body := range cases {
		doc, err := ReadInstanceDoc(strings.NewReader(body))
		if err != nil {
			continue // decode-stage rejection is fine
		}
		if _, err := doc.Instance(); err == nil {
			if _, err := doc.Profile(); err == nil {
				t.Errorf("%s: expected an error somewhere", name)
			}
		}
	}
}
