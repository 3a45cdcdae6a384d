package metric

import (
	"testing"

	"selfishnet/internal/rng"
)

func TestClassifyUniform(t *testing.T) {
	s, err := Uniform(9)
	if err != nil {
		t.Fatal(err)
	}
	info := Classify(s)
	if info.Kind != ClassUniform || info.Unit != 1 {
		t.Fatalf("uniform metric: %+v", info)
	}

	scaled, err := Scale(s, 0.37)
	if err != nil {
		t.Fatal(err)
	}
	info = Classify(scaled)
	if info.Kind != ClassUniform || info.Unit != 0.37 {
		t.Fatalf("scaled uniform metric: %+v", info)
	}
}

func TestClassifySmallInt(t *testing.T) {
	d := [][]float64{
		{0, 3, 5, 4},
		{3, 0, 4, 6},
		{5, 4, 0, 3},
		{4, 6, 3, 0},
	}
	s, err := NewMatrixUnchecked(d)
	if err != nil {
		t.Fatal(err)
	}
	info := Classify(s)
	if info.Kind != ClassSmallInt || info.MaxWeight != 6 {
		t.Fatalf("integer metric: %+v", info)
	}
}

func TestClassifyGeneral(t *testing.T) {
	s, err := UniformPoints(rng.New(5), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if info := Classify(s); info.Kind != ClassGeneral {
		t.Fatalf("random points: %+v", info)
	}

	// Integers beyond the Dial cap degrade to general: the bucket array
	// would no longer be small.
	big := float64(MaxSmallIntWeight + 1)
	d := [][]float64{
		{0, 2, big},
		{2, 0, big},
		{big, big, 0},
	}
	m, err := NewMatrixUnchecked(d)
	if err != nil {
		t.Fatal(err)
	}
	if info := Classify(m); info.Kind != ClassGeneral {
		t.Fatalf("over-cap integers: %+v", info)
	}

	if info := ClassifyFunc(1, nil); info.Kind != ClassGeneral {
		t.Fatalf("degenerate n: %+v", info)
	}
}
