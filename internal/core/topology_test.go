package core

import "testing"

func TestRoleString(t *testing.T) {
	if RoleWorker.String() != "worker" || RoleAggregator.String() != "aggregator" || RoleBoth.String() != "worker+aggregator" {
		t.Fatalf("role strings wrong")
	}
	if Role(8).String() == "" {
		t.Fatalf("unknown role empty string")
	}
}

func TestRing(t *testing.T) {
	r := Ring(4)
	if r.N() != 4 || r.Kind != "ring" {
		t.Fatalf("ring shape wrong: %+v", r)
	}
	for i := 0; i < 4; i++ {
		if r.Roles[i] != RoleBoth {
			t.Fatalf("ring node %d role %v", i, r.Roles[i])
		}
	}
}

func TestRingPanicsOnTiny(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Ring(1) did not panic")
		}
	}()
	Ring(1)
}

func TestPSBipartite(t *testing.T) {
	p := PSBipartite(3)
	if p.N() != 3 {
		t.Fatalf("N = %d", p.N())
	}
	for i := 0; i < 3; i++ {
		if p.Roles[i] != RoleBoth {
			t.Fatalf("node %d role %v", i, p.Roles[i])
		}
	}
}

func TestPSDedicated(t *testing.T) {
	p := PSDedicated(3, 2)
	if p.N() != 5 {
		t.Fatalf("N = %d", p.N())
	}
	for w := 0; w < 3; w++ {
		if p.Roles[w] != RoleWorker {
			t.Fatalf("node %d should be worker", w)
		}
	}
	for s := 3; s < 5; s++ {
		if p.Roles[s] != RoleAggregator {
			t.Fatalf("node %d should be aggregator", s)
		}
	}
}
