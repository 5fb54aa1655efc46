package bench

// Allocation budgets for the five hot loops, in allocations per read,
// enforced by TestAllocBudgets. The gate exists so a regression that
// reintroduces per-read allocation (a stray Clone, a sort.Slice, a
// byte-slice-to-string conversion in a loop) fails CI instead of
// silently eroding throughput.
//
// Each budget is a ceiling over the measured post-optimization cost
// (headroom for runtime/toolchain drift) and is at most half of the
// pre-optimization measurement, recorded below from the same fixture
// (2048 simulated short reads, 20 kb reference, single worker):
//
//	loop                 before     after    budget
//	fastq batch scan      4.006     0.022      0.50
//	qual compress         0.013     0.000      0.01
//	qual decompress       1.000     0.001      0.05
//	core compress        37.607     3.773      4.34
//	core decompress      11.369     0.034      1.00
//	shard assemble      109.436     4.226      4.86
//	shard stream-decode  15.542     0.284      2.00
//	shard restore         7.268     0.230      0.26
//
// "before" figures predate the arena batch reader, pooled range-coder
// state, pooled mapper scratch, shared per-container mapper, decode
// arenas, and the sort.Slice→slices.Sort* conversions. The two
// write-path rows were measured again when the bit-parallel kernel
// replaced the mapper's DP matrices (16.468 → 16.214 and 19.701 →
// 19.454: an edit list is now one slice plus one base array, not one
// array per edit), and again when the mapper's k-mer map — one slice
// per distinct k-mer, built per core.Compress call here — became a flat
// table, Algorithm 1's cost function stopped allocating and the planner
// began validating into one buffer per worker (16.214 → 3.773 and
// 19.440 → 4.226; what is left is Map's candidate, segment and edit
// slices). Their budgets are 1.15× the last measurement. The restore
// row is a stream decode (0.214 of it today) plus the original-order
// restore, spilled under a quarter of the input: its "before" is the
// comparison external sort, which allocated a group and a fresh record
// per read; "after" is the dense-key scatter, which allocates per key
// range, and its budget is 1.15× that. If an
// intentional change raises a number, update the budget alongside the
// code change and say why in the commit.
const (
	budgetFastqScanAllocsPerRead      = 0.50
	budgetQualCompressAllocsPerRead   = 0.01
	budgetQualDecompressAllocsPerRead = 0.05
	budgetCoreCompressAllocsPerRead   = 4.34
	budgetCoreDecompressAllocsPerRead = 1.00
	budgetShardAssembleAllocsPerRead  = 4.86
	budgetShardStreamAllocsPerRead    = 2.00
	budgetRestoreAllocsPerRead        = 0.26
)
