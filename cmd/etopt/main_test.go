package main

import (
	"go/ast"
	"go/parser"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// parseSpecLiteral reads a scenario.Spec composite literal of basic values
// back into a Spec, the way the Go compiler would.
func parseSpecLiteral(t *testing.T, src string) scenario.Spec {
	t.Helper()
	expr, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("emitted literal does not parse: %v\n%s", err, src)
	}
	lit, ok := expr.(*ast.CompositeLit)
	if !ok {
		t.Fatalf("emitted text is not a composite literal:\n%s", src)
	}
	var sp scenario.Spec
	v := reflect.ValueOf(&sp).Elem()
	for _, elt := range lit.Elts {
		kv := elt.(*ast.KeyValueExpr)
		name := kv.Key.(*ast.Ident).Name
		f := v.FieldByName(name)
		if !f.IsValid() {
			t.Fatalf("emitted literal sets unknown field %s", name)
		}
		var text string
		switch x := kv.Value.(type) {
		case *ast.BasicLit:
			text = x.Value
		case *ast.Ident:
			text = x.Name
		default:
			t.Fatalf("field %s: value %T is not a basic literal", name, kv.Value)
		}
		var err error
		switch f.Kind() {
		case reflect.String:
			var s string
			s, err = strconv.Unquote(text)
			f.SetString(s)
		case reflect.Bool:
			var b bool
			b, err = strconv.ParseBool(text)
			f.SetBool(b)
		case reflect.Int, reflect.Int64:
			var n int64
			n, err = strconv.ParseInt(text, 0, 64)
			f.SetInt(n)
		case reflect.Uint64:
			var n uint64
			n, err = strconv.ParseUint(text, 0, 64)
			f.SetUint(n)
		case reflect.Float64:
			var x float64
			x, err = strconv.ParseFloat(text, 64)
			f.SetFloat(x)
		default:
			t.Fatalf("field %s has unhandled kind %s", name, f.Kind())
		}
		if err != nil {
			t.Fatalf("field %s: %v", name, err)
		}
	}
	return sp
}

// TestEmitSpecCarriesEveryField: for every registered scenario, the spec
// -emit-spec prints is the base spec with the searched placement applied,
// down to the fingerprint, whatever fields the base sets.
func TestEmitSpecCarriesEveryField(t *testing.T) {
	for _, base := range scenario.All() {
		// Modules 1, 2, 3 in turn: a valid placement on any mesh of at least
		// three nodes.
		cells := make([]string, base.Mesh*base.Mesh)
		for i := range cells {
			cells[i] = strconv.Itoa(i%3 + 1)
		}
		assignment := strings.Join(cells, ",")

		want := base
		want.Mapping = scenario.MappingExplicit
		want.Assignment = assignment
		wantFP, err := want.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", base.Name, err)
		}
		src := specLiteral(optimized(base, assignment, "searched"))
		got := parseSpecLiteral(t, src)
		gotFP, err := got.Fingerprint()
		if err != nil {
			t.Fatalf("%s: emitted spec does not fingerprint: %v\n%s", base.Name, err, src)
		}
		if gotFP != wantFP {
			t.Errorf("%s: emitted spec is not the base spec with the placement applied:\n%s", base.Name, src)
		}
		if got.Name != base.Name+"-optimized" || got.Description != "searched" {
			t.Errorf("%s: emitted identity %q / %q", base.Name, got.Name, got.Description)
		}
	}
}
