package pdesc

import (
	"encoding/json"
	"slices"
	"strconv"
)

// AppendJSON appends p's compact JSON encoding to dst and returns the
// extended buffer. The bytes are json.Marshal(p)'s, field for field:
// omitted empty fields, sorted cost keys, and the same string escaping.
// It renders without reflection, so the compilation cache's keys and a
// sweep's duplicate check, which render every processor they meet, do
// not pay for it; a test guards that it renders every exported field.
func (p *Processor) AppendJSON(dst []byte) []byte {
	if p == nil {
		return append(dst, "null"...)
	}
	// About the size of the rendering, so it rarely grows dst twice.
	dst = slices.Grow(dst, 128+len(p.Description)+16*len(p.Costs)+80*len(p.Instructions))
	dst = appendString(append(dst, `{"name":`...), p.Name)
	if p.Description != "" {
		dst = appendString(append(dst, `,"description":`...), p.Description)
	}
	dst = strconv.AppendInt(append(dst, `,"simd_width":`...), int64(p.SIMDWidth), 10)
	dst = strconv.AppendInt(append(dst, `,"complex_lanes":`...), int64(p.ComplexLanes), 10)
	if p.Registers != 0 {
		dst = strconv.AppendInt(append(dst, `,"registers":`...), int64(p.Registers), 10)
	}
	if len(p.Costs) > 0 {
		keys := make([]string, 0, len(p.Costs))
		for k := range p.Costs {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = append(dst, `,"costs":{`...)
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(appendString(dst, k), ':'), int64(p.Costs[k]), 10)
		}
		dst = append(dst, '}')
	}
	if len(p.Instructions) > 0 {
		dst = append(dst, `,"instructions":[`...)
		for i := range p.Instructions {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = p.Instructions[i].appendJSON(dst)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendJSON appends in's json.Marshal encoding to dst.
func (in *Instr) appendJSON(dst []byte) []byte {
	dst = appendString(append(dst, `{"name":`...), in.Name)
	dst = appendString(append(dst, `,"cname":`...), in.CName)
	dst = strconv.AppendInt(append(dst, `,"cycles":`...), int64(in.Cycles), 10)
	if in.Semantics != "" {
		dst = appendString(append(dst, `,"semantics":`...), in.Semantics)
	}
	if in.CostClass != "" {
		dst = appendString(append(dst, `,"cost_class":`...), in.CostClass)
	}
	return append(dst, '}')
}

// appendString appends s as json.Marshal quotes it. Printable ASCII
// other than the quote, the backslash and the HTML-escaped <, > and &
// is copied as is; any other string, which descriptions almost never
// hold, is left to json.Marshal.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
