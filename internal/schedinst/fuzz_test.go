package schedinst

import (
	"bytes"
	"testing"
)

// fuzzSeeds adds every instance text of the table tests, valid and
// malformed, plus the embedded files of the format.
func fuzzSeeds(f *testing.F, texts []string, files map[string]string) {
	for _, s := range texts {
		f.Add([]byte(s))
	}
	for _, name := range sortedKeys(files) {
		b, err := instancesFS.ReadFile(files[name])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
}

// FuzzParseTaillard: no input makes ParseTaillard panic, and whatever
// it accepts is a well-formed instance inside the bounds the workloads
// rely on: machines rows of jobs non-negative times within checkDims
// and checkTotal.
func FuzzParseTaillard(f *testing.F) {
	fuzzSeeds(f, []string{
		taGood, "2 2\n1 2\n3 4\n", "", "3", "3 2\n1 2 3\n4 5\n", "3 2\n1 2 3\n4 -5 6\n",
		"3 2\n1 2 3\n4 x 6\n", "0 2\n", "3 0\n", "99999999 2\n", "3 2\n1 2 3\n4 5 6\n7\n",
		"3 2 1 40 50\n1 2 3\n4 5 6\n", "1 1\n2147483648\n",
	}, flowShopFiles)
	f.Fuzz(func(t *testing.T, b []byte) {
		ins, err := ParseTaillard("fuzz", bytes.NewReader(b))
		if err != nil {
			if ins != nil {
				t.Fatalf("error %v came with an instance", err)
			}
			return
		}
		if err := checkDims(ins.Jobs, ins.Machines); err != nil {
			t.Fatalf("accepted instance fails checkDims: %v", err)
		}
		if ins.Upper < 0 || ins.Lower < 0 || (ins.Upper > 0 && ins.Lower > ins.Upper) {
			t.Fatalf("accepted inconsistent bounds lower %d upper %d", ins.Lower, ins.Upper)
		}
		if len(ins.Proc) != ins.Machines {
			t.Fatalf("%d rows for %d machines", len(ins.Proc), ins.Machines)
		}
		var total int64
		for i, row := range ins.Proc {
			if len(row) != ins.Jobs {
				t.Fatalf("machine %d has %d times for %d jobs", i, len(row), ins.Jobs)
			}
			for j, v := range row {
				if v < 0 {
					t.Fatalf("negative time %d (job %d, machine %d)", v, j, i)
				}
				total += int64(v)
			}
		}
		if err := checkTotal(total); err != nil {
			t.Fatalf("accepted instance fails checkTotal: %v", err)
		}
	})
}

// FuzzParseORLib: no input makes ParseORLib panic, and whatever it
// accepts is a well-formed job shop inside the bounds the workloads
// rely on: every job visits every machine exactly once with a
// non-negative duration, within checkDims and checkTotal.
func FuzzParseORLib(f *testing.F) {
	fuzzSeeds(f, []string{
		orGood, "", "2", "2 2\n0 5 1 7\n", "2 2\n0 5 1 7\n1 4 0\n", "2 2\n0 5 2 7\n1 4 0 6\n",
		"2 2\n0 5 0 7\n1 4 0 6\n", "2 2\n0 5 1 -7\n1 4 0 6\n", "2 2 -1\n0 5 1 7\n1 4 0 6\n",
		"2 2\n0 5 1 7\n1 4 0 6\n8\n", "1 1\n0 2147483648\n",
	}, jobShopFiles)
	f.Fuzz(func(t *testing.T, b []byte) {
		ins, err := ParseORLib("fuzz", bytes.NewReader(b))
		if err != nil {
			if ins != nil {
				t.Fatalf("error %v came with an instance", err)
			}
			return
		}
		if err := checkDims(ins.Jobs, ins.Machines); err != nil {
			t.Fatalf("accepted instance fails checkDims: %v", err)
		}
		if ins.Optimum < 0 {
			t.Fatalf("accepted negative optimum %d", ins.Optimum)
		}
		if len(ins.Machine) != ins.Jobs || len(ins.Dur) != ins.Jobs {
			t.Fatalf("%d/%d routing rows for %d jobs", len(ins.Machine), len(ins.Dur), ins.Jobs)
		}
		var total int64
		for j := range ins.Machine {
			if len(ins.Machine[j]) != ins.Machines || len(ins.Dur[j]) != ins.Machines {
				t.Fatalf("job %d has %d/%d operations for %d machines", j, len(ins.Machine[j]), len(ins.Dur[j]), ins.Machines)
			}
			visited := make([]bool, ins.Machines)
			for o, m := range ins.Machine[j] {
				if m < 0 || m >= ins.Machines || visited[m] {
					t.Fatalf("job %d op %d names machine %d out of range or twice", j, o, m)
				}
				visited[m] = true
				if d := ins.Dur[j][o]; d < 0 {
					t.Fatalf("negative duration %d (job %d, op %d)", d, j, o)
				}
				total += int64(ins.Dur[j][o])
			}
		}
		if err := checkTotal(total); err != nil {
			t.Fatalf("accepted instance fails checkTotal: %v", err)
		}
	})
}
