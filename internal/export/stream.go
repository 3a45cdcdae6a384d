package export

import (
	"encoding/json"
	"io"
)

// JSONStream writes a JSON array of table documents incrementally: each
// Write encodes one table and flushes it to the underlying writer, so a
// long-running producer (topogamed's /v1/runall, which writes each
// catalog table as its run finishes) streams valid output without
// buffering the whole result set.
//
// The byte stream is identical to WriteJSONTables over the same tables
// (indented array, one document per table), so consumers cannot tell a
// streamed response from a buffered one. Close terminates the array;
// a stream with zero writes closes to the empty array "[]".
//
// JSONStream is not safe for concurrent use; serialize Writes.
type JSONStream struct {
	w   io.Writer
	n   int
	err error
}

// NewJSONStream starts an incremental JSON table array on w.
func NewJSONStream(w io.Writer) *JSONStream {
	return &JSONStream{w: w}
}

// Write appends one table to the array. The table is validated like
// WriteJSON (row widths must match the header). The first error sticks:
// subsequent Writes and Close return it unchanged.
func (s *JSONStream) Write(t *Table) error {
	if s.err != nil {
		return s.err
	}
	doc, err := t.jsonDoc()
	if err != nil {
		s.err = err
		return err
	}
	// Match encoding/json's SetIndent("", "  ") array layout: elements
	// indented one level, separated by ",\n".
	body, err := json.MarshalIndent(doc, "  ", "  ")
	if err != nil {
		s.err = err
		return err
	}
	head := "[\n  "
	if s.n > 0 {
		head = ",\n  "
	}
	if _, err := io.WriteString(s.w, head); err != nil {
		s.err = err
		return err
	}
	if _, err := s.w.Write(body); err != nil {
		s.err = err
		return err
	}
	s.n++
	return nil
}

// Close terminates the array (writing "[]" when nothing was written)
// and returns the first error seen. It does not close the underlying
// writer. Close is idempotent only in the error case; call it exactly
// once after the final Write.
func (s *JSONStream) Close() error {
	if s.err != nil {
		return s.err
	}
	tail := "\n]\n"
	if s.n == 0 {
		tail = "[]\n"
	}
	if _, err := io.WriteString(s.w, tail); err != nil {
		s.err = err
		return err
	}
	return nil
}

// Err returns the first error the stream has seen, if any.
func (s *JSONStream) Err() error { return s.err }
