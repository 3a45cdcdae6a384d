package export

import (
	"bytes"
	"strings"
	"testing"
)

func streamTables() []*Table {
	return []*Table{
		{Title: "a", Headers: []string{"x", "y"}, Rows: [][]string{{"1", "2"}}},
		{Title: "b", Headers: []string{"x"}, Rows: [][]string{{"3"}, {"4"}}, Notes: []string{"n"}},
		{Headers: []string{"only-headers"}},
	}
}

// TestJSONStreamMatchesBuffered pins the byte-compatibility contract:
// streaming table-by-table produces exactly the WriteJSONTables bytes,
// for several element counts including zero.
func TestJSONStreamMatchesBuffered(t *testing.T) {
	all := streamTables()
	for count := 0; count <= len(all); count++ {
		tables := all[:count]
		var want bytes.Buffer
		if err := WriteJSONTables(&want, tables); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		s := NewJSONStream(&got)
		for _, tb := range tables {
			if err := s.Write(tb); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("count %d: stream bytes differ\nstreamed: %q\nbuffered: %q",
				count, got.String(), want.String())
		}
	}
}

func TestJSONStreamValidation(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONStream(&buf)
	bad := &Table{Headers: []string{"a", "b"}, Rows: [][]string{{"only-one"}}}
	if err := s.Write(bad); err == nil {
		t.Fatal("ragged row should error")
	}
	// The error sticks.
	if err := s.Write(&Table{Headers: []string{"a"}}); err == nil {
		t.Error("write after error should keep failing")
	}
	if err := s.Close(); err == nil {
		t.Error("close after error should return it")
	}
	if s.Err() == nil {
		t.Error("Err() should report the sticky error")
	}
	if strings.Contains(buf.String(), "]") {
		t.Errorf("failed stream must not be terminated as valid JSON: %q", buf.String())
	}
}
