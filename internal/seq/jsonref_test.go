package seq

import (
	"encoding/json"
	"fmt"
	"io"
)

// stdDecodeJSONReads is DecodeJSONReads as it was built on encoding/json's
// token stream and reflection, kept as the reference the hand-written
// decoder is checked against: on every body both must accept or reject
// alike and decode the same reads.
func stdDecodeJSONReads(r io.Reader, fields map[string]JSONReadVisitor) error {
	dec := json.NewDecoder(r)
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("json: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return fmt.Errorf("json: request body is not an object")
	}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("json: %w", err)
		}
		key, _ := keyTok.(string)
		visit, ok := fields[key]
		if !ok {
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return fmt.Errorf("json: field %q: %w", key, err)
			}
			continue
		}
		if err := stdDecodeReadArray(dec, key, visit); err != nil {
			return err
		}
	}
	if _, err := dec.Token(); err != nil { // closing '}'
		return fmt.Errorf("json: %w", err)
	}
	return nil
}

// stdDecodeReadArray streams one read-array value, invoking visit per
// element.
func stdDecodeReadArray(dec *json.Decoder, field string, visit JSONReadVisitor) error {
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("json: field %q: %w", field, err)
	}
	if tok == nil {
		return nil // null array: no reads
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return fmt.Errorf("json: field %q is not an array", field)
	}
	for dec.More() {
		var wire struct {
			Name string `json:"name"`
			Seq  string `json:"seq"`
			Qual string `json:"qual"`
		}
		if err := dec.Decode(&wire); err != nil {
			return fmt.Errorf("json: field %q: %w", field, err)
		}
		rd := Read{Name: wire.Name, Seq: []byte(wire.Seq)}
		if wire.Qual != "" {
			rd.Qual = []byte(wire.Qual)
		}
		if err := visit(rd); err != nil {
			return err
		}
	}
	if _, err := dec.Token(); err != nil { // closing ']'
		return fmt.Errorf("json: field %q: %w", field, err)
	}
	return nil
}
