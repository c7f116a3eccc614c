package experiments

import (
	"testing"
)

// cacheTestConfig keeps the cache tests to a few seconds: Figure 3's
// 160 characterization cases plus the Figure 11 repair runs and the
// Figure 13 SAV sweep cover every cached tool flavor that renders
// figures (char, native, laser with and without repair).
func cacheTestConfig() Config {
	return Config{AccuracyScale: 2, PerfScale: 0.3, Runs: 1}
}

// captureFigures renders the cache-test figure subset.
func captureFigures(t *testing.T, cfg Config) (fig3, fig11, fig13 string) {
	t.Helper()
	_, sums, err := RunFigure3()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunFigure11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	points, err := RunFigure13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return RenderFigure3(sums), RenderFigure11(rows), RenderFigure13(points)
}

func wantCacheTestExps(e string) bool {
	return e == "fig3" || e == "fig11" || e == "fig13"
}

// TestColdWarmByteIdentical pins the persistence contract: a cold run
// populates the cache, and a warm run — fresh in-memory layer, same
// directory — simulates nothing and renders every figure byte-identical.
func TestColdWarmByteIdentical(t *testing.T) {
	dir := t.TempDir()
	t.Cleanup(resetCache)
	cfg := cacheTestConfig()

	resetCache()
	if err := SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	cold3, cold11, cold13 := captureFigures(t, cfg)
	if st := CacheStats(); st.Computes == 0 {
		t.Fatalf("cold run computed nothing: %+v", st)
	}

	resetCache()
	if err := SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	warm3, warm11, warm13 := captureFigures(t, cfg)
	st := CacheStats()
	if st.Computes != 0 {
		t.Errorf("warm run simulated %d workloads, want 0 (stats %+v)", st.Computes, st)
	}
	if st.DiskHits == 0 {
		t.Errorf("warm run had no disk hits: %+v", st)
	}
	if warm3 != cold3 {
		t.Errorf("Figure 3 differs cold vs warm:\n%s\nvs\n%s", cold3, warm3)
	}
	if warm11 != cold11 {
		t.Errorf("Figure 11 differs cold vs warm:\n%s\nvs\n%s", cold11, warm11)
	}
	if warm13 != cold13 {
		t.Errorf("Figure 13 differs cold vs warm:\n%s\nvs\n%s", cold13, warm13)
	}
}

// TestShardMergeEquivalence pins the sharded workflow: the
// cost-balanced work-unit partition is exact, two
// shard passes (fresh in-memory layers, shared directory — separate
// processes in CI) warm disjoint slices, and the assembling run renders
// byte-identically to an unsharded evaluation while simulating zero
// workloads. The zero-compute assertion is also what pins the registry
// specs' enumerations against drifting from their runners: a missed
// unit would surface as a compute here.
func TestShardMergeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-pass evaluation; skipped in the reduced-scale race run")
	}
	t.Cleanup(resetCache)
	// The subtest names the partition the shards use: the cost-balanced
	// LPT partition, the only one RunShard has.
	t.Run("cost", func(t *testing.T) {
		cfg := cacheTestConfig()

		// Unsharded reference, memory-only.
		resetCache()
		ref3, ref11, ref13 := captureFigures(t, cfg)

		dir := t.TempDir()
		// Two shard passes over a shared directory.
		const n = 2
		ownedTotal := 0
		var total int
		for shard := 0; shard < n; shard++ {
			resetCache()
			if err := SetCacheDir(dir); err != nil {
				t.Fatal(err)
			}
			owned, tot, sum, err := RunShard(cfg, wantCacheTestExps, shard, n, RunOptions{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sum.Empty() {
				t.Fatalf("shard %d reported failures on a healthy run: %s", shard, sum)
			}
			if owned == 0 {
				t.Errorf("shard %d owns no work units", shard)
			}
			ownedTotal += owned
			total = tot
		}
		if ownedTotal != total {
			t.Errorf("shards own %d units, enumeration has %d — partition is not exact", ownedTotal, total)
		}

		// The merge step: assemble the figures from the warmed cache.
		resetCache()
		if err := SetCacheDir(dir); err != nil {
			t.Fatal(err)
		}
		got3, got11, got13 := captureFigures(t, cfg)
		if st := CacheStats(); st.Computes != 0 {
			t.Errorf("merge run simulated %d workloads, want 0 — spec enumeration drifted from the runners (stats %+v)",
				st.Computes, st)
		}
		if got3 != ref3 {
			t.Errorf("Figure 3 differs sharded vs unsharded:\n%s\nvs\n%s", ref3, got3)
		}
		if got11 != ref11 {
			t.Errorf("Figure 11 differs sharded vs unsharded:\n%s\nvs\n%s", ref11, got11)
		}
		if got13 != ref13 {
			t.Errorf("Figure 13 differs sharded vs unsharded:\n%s\nvs\n%s", ref13, got13)
		}
	})
}

// TestShardRejectsBadSpec pins RunShard's input validation.
func TestShardRejectsBadSpec(t *testing.T) {
	cfg := cacheTestConfig()
	for _, tc := range []struct{ shard, n int }{{-1, 2}, {2, 2}, {0, 0}} {
		if _, _, _, err := RunShard(cfg, wantCacheTestExps, tc.shard, tc.n, RunOptions{}, nil); err == nil {
			t.Errorf("RunShard(%d, %d) accepted an invalid spec", tc.shard, tc.n)
		}
	}
}

// TestWorkUnitsDeduplicated: figures share baselines; the enumeration
// must hand each cache key to at most one shard exactly once.
func TestWorkUnitsDeduplicated(t *testing.T) {
	units := enumerateAll(cacheTestConfig(), func(string) bool { return true })
	seen := map[string]bool{}
	for _, u := range units {
		id := u.Key.ID()
		if seen[id] {
			t.Errorf("duplicate work unit %s (%s)", u.Label, id[:12])
		}
		seen[id] = true
	}
	if len(units) == 0 {
		t.Fatal("no work units enumerated")
	}
}
