package etc

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// Native fuzz targets for everything in this package that consumes
// untrusted input: the HCSP matrix parser, the class-name parsers, and
// direct instance construction. The properties are uniform — malformed
// input (bad headers, negative dimensions, NaN/negative/infinite
// entries, truncated bodies) must produce an error, never a panic, and
// every accepted input must yield an instance whose invariants hold.
// `go test` replays the seed corpus below on every run; `go test
// -fuzz=FuzzRead ./internal/etc` explores further.

// FuzzRead feeds arbitrary text to the HCSP parser. Accepted inputs
// must validate and round-trip exactly through Write.
func FuzzRead(f *testing.F) {
	seeds := []string{
		"2 2\n1\n2\n3\n4\n",
		"2 3\n1 2 3\n4 5 6\n",
		"",
		"\n",
		"x y\n",
		"2\n",
		"-1 5\n1\n2\n",
		"5 -1\n1\n2\n",
		"0 0\n",
		"999999999 999999999\n1\n",
		"16777216 1\n",
		"2 2\nNaN\n1\n1\n1\n",
		"2 2\n-3\n1\n1\n1\n",
		"2 2\n0\n1\n1\n1\n",
		"1 1\n+Inf\n",
		"1 1\n1e309\n",
		"1 1\n1e-309\n",
		"2 2\n1\n2\n3\n",       // too few values
		"2 2\n1\n2\n3\n4\n5\n", // too many values
		"1 2 3\n1\n2\n",        // trailing junk in header is ignored by Sscanf
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		in, err := Read("fuzz", strings.NewReader(data))
		if err != nil {
			return // rejected: fine, as long as we did not panic
		}
		if verr := in.Validate(); verr != nil {
			t.Fatalf("accepted instance fails Validate: %v\ninput: %q", verr, data)
		}
		var buf bytes.Buffer
		if werr := in.Write(&buf); werr != nil {
			t.Fatalf("Write failed on accepted instance: %v", werr)
		}
		back, rerr := Read(in.Name, &buf)
		if rerr != nil {
			t.Fatalf("round-trip Read failed: %v\nserialized: %q", rerr, buf.String())
		}
		if back.T != in.T || back.M != in.M {
			t.Fatalf("round-trip dims %dx%d, want %dx%d", back.T, back.M, in.T, in.M)
		}
		for i := range in.Row {
			if back.Row[i] != in.Row[i] {
				t.Fatalf("round-trip Row[%d] = %v, want %v", i, back.Row[i], in.Row[i])
			}
		}
	})
}

// FuzzParseClass checks that class-name parsing never panics and that
// every accepted name round-trips through Class.Name.
func FuzzParseClass(f *testing.F) {
	seeds := []string{
		"u_c_hihi.0", "u_i_lolo.3", "u_s_hilo", "u_c_lohi.007",
		"", "u", "u_c", "u_c_hihi.", "u_c_hihi.x", "u_q_hihi.0",
		"u_c_xxyy.0", "u_c_hih.0", "u_c_hihii.0", "v_c_hihi.0",
		"u_c_hihi.-5", "u_c_hihi.+5", "u__hihi.0", "u_c_HIHI.0",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		cl, err := ParseClass(name)
		if err != nil {
			return
		}
		rt, err2 := ParseClass(cl.Name())
		if err2 != nil {
			t.Fatalf("canonical name %q does not reparse: %v (from %q)", cl.Name(), err2, name)
		}
		if rt != cl {
			t.Fatalf("round-trip %+v != %+v (from %q)", rt, cl, name)
		}
	})
}

// FuzzParseSizedName covers the "@TxM" sized form used by the instance
// cache and the scenario sweep.
func FuzzParseSizedName(f *testing.F) {
	seeds := []string{
		"u_c_hihi.0@128x8", "u_c_hihi.0@512x16", "u_i_lolo.0",
		"u_c_hihi.0@", "u_c_hihi.0@x", "u_c_hihi.0@8", "u_c_hihi.0@0x0",
		"u_c_hihi.0@-1x8", "u_c_hihi.0@8x-1", "u_c_hihi.0@99999999x99999999",
		"u_c_hihi.0@1x1@2x2", "@128x8", "u_c_hihi.0@07x08",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		cl, tasks, machines, err := ParseSizedName(name)
		if err != nil {
			return
		}
		if tasks < 0 || machines < 0 {
			t.Fatalf("ParseSizedName(%q) accepted negative dims %dx%d", name, tasks, machines)
		}
		if tasks > 0 && machines > 0 && tasks > maxMatrixEntries/machines {
			t.Fatalf("ParseSizedName(%q) accepted oversized %dx%d", name, tasks, machines)
		}
		canon := SizedName(cl, tasks, machines)
		rt, rtT, rtM, err2 := ParseSizedName(canon)
		if err2 != nil {
			t.Fatalf("canonical sized name %q does not reparse: %v (from %q)", canon, err2, name)
		}
		if rt != cl {
			t.Fatalf("round-trip class %+v != %+v (from %q)", rt, cl, name)
		}
		// SizedName folds the benchmark dimensions into the plain form,
		// where the parser reports zeros; both spell the same instance.
		if !(rtT == tasks && rtM == machines) &&
			!(rtT == 0 && rtM == 0 && (tasks == 0 || tasks == DefaultTasks) && (machines == 0 || machines == DefaultMachines)) {
			t.Fatalf("round-trip dims %dx%d, want %dx%d (from %q)", rtT, rtM, tasks, machines, name)
		}
	})
}

// FuzzNewInstance drives direct construction with arbitrary dimensions
// and bit patterns (hitting NaN, ±Inf, negatives and denormals): New
// must either reject with an error or hand back a valid instance.
func FuzzNewInstance(f *testing.F) {
	f.Add(2, 2, []byte{0, 0, 0, 0, 0, 0, 240, 63}) // 1.0 plus padding
	f.Add(-1, -1, []byte{1})
	f.Add(0, 5, []byte{})
	f.Add(1<<30, 1<<30, []byte{1, 2, 3})
	f.Add(1, 2, []byte{0, 0, 0, 0, 0, 0, 248, 127, 0, 0, 0, 0, 0, 0, 240, 63}) // NaN, 1.0
	f.Fuzz(func(t *testing.T, tasks, machines int, data []byte) {
		row := make([]float64, 0, len(data)/8)
		for i := 0; i+8 <= len(data); i += 8 {
			bits := uint64(0)
			for j := 0; j < 8; j++ {
				bits |= uint64(data[i+j]) << (8 * j)
			}
			row = append(row, math.Float64frombits(bits))
		}
		in, err := New("fuzz", tasks, machines, row)
		if err != nil {
			return
		}
		if verr := in.Validate(); verr != nil {
			t.Fatalf("accepted instance fails Validate: %v", verr)
		}
		for tt := 0; tt < in.T; tt++ {
			for m := 0; m < in.M; m++ {
				if in.ETC(tt, m) != in.Row[tt*in.M+m] {
					t.Fatalf("ETC disagrees with Row at (%d,%d)", tt, m)
				}
			}
		}
	})
}
