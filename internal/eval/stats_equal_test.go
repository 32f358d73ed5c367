package eval

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestStatsEqualPartition proves, by reflection, that every Stats
// field, the unexported round record included, is either compared by
// Equal or deliberately listed in statsEqualExcluded — and that the
// exclusion set names no stale fields. Perturbing a compared field must
// break Equal; perturbing an excluded one must not. A field added to
// the struct but forgotten in both places fails here.
func TestStatsEqualPartition(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	fields := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		fields[typ.Field(i).Name] = true
	}
	for name := range statsEqualExcluded {
		if !fields[name] {
			t.Errorf("statsEqualExcluded names %q, which is not a Stats field", name)
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var a, b Stats
		bv := reflect.ValueOf(&b).Elem().Field(i)
		if !f.IsExported() {
			bv = reflect.NewAt(f.Type, unsafe.Pointer(bv.UnsafeAddr())).Elem()
		}
		switch f.Type.Kind() {
		case reflect.Bool:
			bv.SetBool(true)
		case reflect.Int, reflect.Int64:
			bv.SetInt(1)
		case reflect.Slice:
			bv.Set(reflect.MakeSlice(f.Type, 1, 1))
		case reflect.Struct:
			if f.Type != reflect.TypeOf(roundLog{}) {
				t.Fatalf("field %s has type %s; teach this test to perturb it", f.Name, f.Type)
			}
			// One round that derived a tuple of p.
			bv.Set(reflect.ValueOf(roundLog{preds: []string{"p"}, n: 1, counts: []int64{1}}))
		default:
			t.Fatalf("field %s has kind %s; teach this test to perturb it", f.Name, f.Type.Kind())
		}
		excluded := statsEqualExcluded[f.Name]
		if got := a.Equal(&b); got != excluded {
			if excluded {
				t.Errorf("excluded field %s still breaks Equal; drop it from statsEqualExcluded or stop comparing it", f.Name)
			} else {
				t.Errorf("field %s is neither compared by Equal nor listed in statsEqualExcluded", f.Name)
			}
		}
	}
}
