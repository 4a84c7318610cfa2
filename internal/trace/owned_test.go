package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/sparse"
)

// collectOwned drains an owned trace into parallel device/line slices.
func collectOwned(ot OwnedTrace) (devs []int32, lines []int64) {
	ot.Trace(func(dev int32, line int64) {
		devs = append(devs, dev)
		lines = append(lines, line)
	})
	return devs, lines
}

// blockOwner is a test-local contiguous equal split of n rows over k devices.
func blockOwner(n int32, k int32) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(int64(i) * int64(k) / int64(n))
	}
	return out
}

// ownedCases pairs every owned generator with its unowned counterpart over
// one matrix.
func ownedCases(t *testing.T, m *sparse.CSR, owner []int32, line int64) map[string]struct {
	flat  func(emit func(int64))
	owned OwnedTrace
} {
	t.Helper()
	coo := sparse.CSRToCOO(m)
	info, err := kernels.SpGEMMSymbolic(m, m)
	if err != nil {
		t.Fatalf("symbolic: %v", err)
	}
	return map[string]struct {
		flat  func(emit func(int64))
		owned OwnedTrace
	}{
		"spmv-csr": {SpMVCSR(m, line), SpMVCSROwned(m, owner, line)},
		"spmv-coo": {SpMVCOO(coo, line), SpMVCOOOwned(coo, owner, line)},
		"spmm-4":   {SpMMCSR(m, 4, line), SpMMCSROwned(m, 4, owner, line)},
		"spmm-97":  {SpMMCSR(m, 97, line), SpMMCSROwned(m, 97, owner, line)},
		"spgemm":   {SpGEMM(m, m, info.RowNNZ, line), SpGEMMOwned(m, m, info.RowNNZ, owner, line)},
	}
}

// TestOwnedMatchesUnowned pins the bit-identity contract: the owned
// generators must emit exactly the line sequence of their unowned
// counterparts, for a trivial single-device owner and for a nontrivial
// split (ownership may never perturb the trace, only annotate it).
func TestOwnedMatchesUnowned(t *testing.T) {
	const line = 128
	matrices := map[string]*sparse.CSR{
		"er":      gen.ErdosRenyi{Nodes: 257, AvgDegree: 6}.Generate(1),
		"planted": gen.PlantedPartition{Nodes: 300, Communities: 10, AvgDegree: 8, Mu: 0.3}.Generate(2),
	}
	for mName, m := range matrices {
		for _, k := range []int32{1, 4} {
			owner := blockOwner(m.NumRows, k)
			for name, c := range ownedCases(t, m, owner, line) {
				want := collect(c.flat)
				devs, got := collectOwned(c.owned)
				if len(got) != len(want) {
					t.Fatalf("%s/%s K=%d: owned emitted %d lines, unowned %d", mName, name, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%s K=%d: line %d is %d, want %d", mName, name, k, i, got[i], want[i])
					}
				}
				for i, d := range devs {
					if d < 0 || d >= k {
						t.Fatalf("%s/%s K=%d: access %d attributed to device %d", mName, name, k, i, d)
					}
				}
			}
		}
	}
}

// TestOwnedHomeMap checks the home map covers the whole footprint, stays in
// device range, and homes every emitted line.
func TestOwnedHomeMap(t *testing.T) {
	const line = 128
	m := gen.PlantedPartition{Nodes: 300, Communities: 10, AvgDegree: 8, Mu: 0.3}.Generate(3)
	const k = 4
	owner := blockOwner(m.NumRows, k)
	for name, c := range ownedCases(t, m, owner, line) {
		if len(c.owned.Home) == 0 {
			t.Fatalf("%s: empty home map", name)
		}
		for ln, dev := range c.owned.Home {
			if dev < 0 || dev >= k {
				t.Fatalf("%s: line %d homed on device %d", name, ln, dev)
			}
		}
		_, lines := collectOwned(c.owned)
		for i, ln := range lines {
			if ln < 0 || ln >= int64(len(c.owned.Home)) {
				t.Fatalf("%s: access %d to line %d outside home map of %d lines", name, i, ln, len(c.owned.Home))
			}
		}
	}
}

// TestOwnedRowAttribution spot-checks the attribution rule on a hand-built
// matrix: every access issued while processing row r is tagged owner[r].
func TestOwnedRowAttribution(t *testing.T) {
	// 4 rows, 2 devices: rows 0-1 on device 0, rows 2-3 on device 1.
	// Row 2 reads X[0], a remote dereference executed by device 1.
	coo := sparse.NewCOO(4, 4, 4)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	coo.Add(2, 0, 1)
	coo.Add(3, 3, 1)
	m := coo.ToCSR()
	owner := []int32{0, 0, 1, 1}
	ot := SpMVCSROwned(m, owner, 128)
	devs, _ := collectOwned(ot)
	// The trace is row-major, so device tags must be non-decreasing for a
	// block owner: once row 2 starts, everything is device 1.
	for i := 1; i < len(devs); i++ {
		if devs[i] < devs[i-1] {
			t.Fatalf("device tags not row-monotonic: %v", devs)
		}
	}
	if devs[0] != 0 || devs[len(devs)-1] != 1 {
		t.Fatalf("expected device 0 first and device 1 last, got %v", devs)
	}
	// X is homed per vertex: X[0] with device 0, X[3] with device 1.
	l := NewLayout(4, 4, 1, 128)
	if got := ot.Home[l.line(l.X)]; got != 0 {
		t.Fatalf("X[0] line homed on device %d, want 0", got)
	}
	if got := ot.Home[l.line(l.Y)]; got != 0 {
		t.Fatalf("Y[0] line homed on device %d, want 0", got)
	}
}

// TestOwnedValidation pins the panics on mismatched owner vectors and
// rectangular SpGEMM operands.
func TestOwnedValidation(t *testing.T) {
	m := gen.ErdosRenyi{Nodes: 16, AvgDegree: 3}.Generate(4)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("short owner", func() { SpMVCSROwned(m, make([]int32, 3), 128) })
	mustPanic("spmm owner", func() { SpMMCSROwned(m, 4, nil, 128) })
	info, err := kernels.SpGEMMSymbolic(m, m)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic("bad cRowNNZ", func() { SpGEMMOwned(m, m, info.RowNNZ[:4], make([]int32, 16), 128) })
}

// hashOwner is a seeded, non-monotone owner: row r goes to a device drawn
// from a fixed integer hash of (seed, r), so neighbouring rows land on
// unrelated devices and a generator that tagged an access with the wrong
// row's owner would change the stream.
func hashOwner(n int32, k int32, seed uint64) []int32 {
	out := make([]int32, n)
	for i := range out {
		x := seed + uint64(i)*0x9E3779B97F4A7C15
		x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
		x = (x ^ x>>27) * 0x94D049BB133111EB
		out[i] = int32((x ^ x>>31) % uint64(k))
	}
	return out
}

// ownedDigests returns the hex SHA-256 of an owned trace's (dev, line)
// stream and of its home map, each value little-endian.
func ownedDigests(ot OwnedTrace) (stream, home string) {
	h := sha256.New()
	var buf [12]byte
	ot.Trace(func(dev int32, line int64) {
		binary.LittleEndian.PutUint32(buf[:4], uint32(dev))
		binary.LittleEndian.PutUint64(buf[4:], uint64(line))
		h.Write(buf[:])
	})
	stream = hex.EncodeToString(h.Sum(nil))
	h.Reset()
	for _, dev := range ot.Home {
		binary.LittleEndian.PutUint32(buf[:4], uint32(dev))
		h.Write(buf[:4])
	}
	return stream, hex.EncodeToString(h.Sum(nil))
}

// TestOwnedStreamDigest pins every owned generator's exact device
// attribution and home map, not just its line sequence: the digests were
// recorded from the generators as first written, for a single device, a
// block owner, and a seeded owner that jumps between devices row to row.
func TestOwnedStreamDigest(t *testing.T) {
	const line = 128
	matrices := map[string]*sparse.CSR{
		"er":      gen.ErdosRenyi{Nodes: 257, AvgDegree: 6}.Generate(1),
		"planted": gen.PlantedPartition{Nodes: 300, Communities: 10, AvgDegree: 8, Mu: 0.3}.Generate(2),
	}
	want := map[string][2]string{
		"er/spgemm/block4":        {"d908a3b4f2be7fdbb645d775eeb8d3e16ef8e20c136e3da9f14ec702de6bea19", "4753d86058cfa12e6c1f9dacd1243a16c5be3bf8f0032bb8eedc56429dc46f74"},
		"er/spgemm/hash3":         {"ab3ad33dc0a8ab40af46f4fbb2dea850d19d052738ce613cbf28bf6a76ea4291", "70304308ec83ce7e0a45bbe46dc183a495ae869ce424803573976c8ca7df1f8e"},
		"er/spgemm/k1":            {"bfe1fe125031345514554ca5885d1c44f6f29c187374614116a496c009ad6323", "903a1a0f91e4827670b61492a651e69d282aa1f1dfccb7bf89fe05395cf26f54"},
		"er/spmm-4/block4":        {"a141b20dde405f1cd68ae50f56f9f8223d590895ad0b0a853b1fb94d9b73b3c0", "5ab372d58e6412ee32da961ecf62a421c756ce336ef1169ea0a83473e1917b99"},
		"er/spmm-4/hash3":         {"f8fb9adb25f537cd11b5255e92827f510a742297fbc1dae4749b3d76693af333", "e2011c0b37954b958cd0ccd53fa51e4d9f523926b7e0d7ea8e4d3ba7f5268534"},
		"er/spmm-4/k1":            {"5b5c29e1374c6fe758b35431357d4a1ca5aa3aec37edbfb518576a80e6a8785e", "101bb8aeab946925b14006ee79fbfa56dcf5b2a65c44ca9b435abbd1abe3a22b"},
		"er/spmm-97/block4":       {"ebda062821fe55ed23b60c0cbadb8a63ce175cf51ff9e3ae47d0f103c848a84a", "035774580659bd04275dc5ca9ba49f453dc89db4dfe41d5ef2ce4f3beba34a61"},
		"er/spmm-97/hash3":        {"f03dc47d97a38b5fba03ce62009c25cf057d285f634548788d8a2267396bed9a", "55926ecd36c8b281cc2922aa062e85b3b445099b97a9429186888f1c9fddfc33"},
		"er/spmm-97/k1":           {"73c1e280d5f5737ce21305c47bdfbaac288c04253da0a8dbb59cc9e2ad23f2d8", "0ca8aa51e2a90602d8c3fc322269cd6a7c6762d99361fc4145c21a5c3e438550"},
		"er/spmv-coo/block4":      {"65aec9e5c3c6f0ef9322d812b0e84e2b6750e3284bece156d288cefc4d1e42e1", "be8710273b39edf656a50bb318a20d63a40266a1f9a8d8f11d5454768c545989"},
		"er/spmv-coo/hash3":       {"74c7d6c1281939fb053c6c648a648bc5782dfe772bd124cb6d0a854da3eeac6e", "b1e4a68e7bb1a8b75b31520c30929031eaa096d043add5d2a4fd8f69f3a98ad5"},
		"er/spmv-coo/k1":          {"bed76600c0a11b77a7471e1b1649ac53b77c4d90236736022e1670545d30b6ef", "f4bd841308415de6ed2727462cd66a7333ac8155b4e8e95de0220355189c785c"},
		"er/spmv-csr/block4":      {"154b426dfc1cfd84bc717b5df2ad2e416f7498bbec6101f3cd599aad5e6a8d30", "93fbcb80a8dacf31f8c3e9c58ac77974d51b7b69735f2a2a4e1267c816029452"},
		"er/spmv-csr/hash3":       {"f8b41e7a3672bcf29faa1965c620ef911fb50cbf142f7247093faf28b12fe180", "9610b4e18c50c63922c547e9366f80fc6e853ff5733cc2df3fed02ae706b250d"},
		"er/spmv-csr/k1":          {"364a224c4482b3940adfb7b85da70bc9907ef61190b7268e269462cbb5b108fd", "aaf4a48db8af6b0cb05bff1b3b4847cb6235f0de26ccc6c56aa184032dba0063"},
		"planted/spgemm/block4":   {"d4c6213ed291c4440d8c4f88ef0278e3180f44165ab5e3a7b1b6e19f7789c4b8", "ad1bae4e483b96e0e8b80fc5f05b234e95730f3c5d163f19cae4c558d684ce61"},
		"planted/spgemm/hash3":    {"1597b99193de8b940011eead9d8b27a597346b63a5fb06c1e3c5996943fe962d", "3e04a1f4c25b99367c9a9fe4291be18e735de3254108f6a3c65b478d7d65cb08"},
		"planted/spgemm/k1":       {"15214db68702c9539403e893fbeecdfb29fad66069ba4d5e7890cf82e45fa55c", "337b04454d4c790368baacf72ecd486cd5a9ecb70805f2840b66b129b22b2b54"},
		"planted/spmm-4/block4":   {"91fa526e661c4120d540e25dbcafba455f29ea634eb0fa57d4ee87bec3885825", "f27d467e5d3492b92ee14fcb718a78736970f01052497797968c1a0df8438a28"},
		"planted/spmm-4/hash3":    {"db4088005e0f0d414f815372ecb504a24fc9697d9e467e4931b51426500d73b1", "36e7b7b5a1e53bf06ccfc921c5a84612714e06612a049ca0a794050cab15a533"},
		"planted/spmm-4/k1":       {"f258cd54ab58a7f3b61e8e2dfb3c3790d036236ac8897d2f59049673d21463c4", "f0402756b4ecd3e4ad6fcc4ff95f76bcf2bf1733d897f79972aaedb03f87dfd3"},
		"planted/spmm-97/block4":  {"f06121da229307a527751f6d235c754caeedc181cd94bbbce1be09b64db8c23d", "1d3c489100ca354b75c4b8f5f00dda6f382a1ee86d75cd7c1d27828e9872dbdf"},
		"planted/spmm-97/hash3":   {"d4f2d24bfc72573760a1c74b68ccf8c7f1045d4cee70bbd2d1cf161a6155fd8d", "8c8aee43942b8b214bbbc0bd5c6de855453bff2c91abbc5c3869918bc9d1dab4"},
		"planted/spmm-97/k1":      {"7f5403a1a7b48717ef953701c2f2d99c80a359ce657742a82855a11e985ed5d1", "cb2af3e43705028ebe1cec681d46ccf6a3457f3e4a82a08385b16b30f73cffea"},
		"planted/spmv-coo/block4": {"afad66d42d9f108f0e4ee0732b417a8872b9f9fc0bf560fe5e27f83d9bf69f56", "c96fa3c16a9dd03fb5b03cd992e70eacf3aeb1bc410790df4cae3ca67acea33c"},
		"planted/spmv-coo/hash3":  {"687eb489d1237098ca3b5f2e05ee19a969351ebb76d60ec6c4c408f908cc09d0", "97584b58845e34f88e96db858a22f45ff26b4ce4e5ee3f0b9cbbf6c199076b2e"},
		"planted/spmv-coo/k1":     {"bceaf511b2b75a40c0b8cf5eff5761922b00a7989a45879a5e781a5030e52d30", "d54f02b97ed5bc2a642756268b41d4b8f7a077e73224e1580d22436834a14db5"},
		"planted/spmv-csr/block4": {"179a1fd6ea8bcff26000d576413070bc75ae5c13f89b42965217c8df09afc19a", "7b7c42b1dcd32f78bb82f11c0d9f4637c20d307443d727496894c27d942f6798"},
		"planted/spmv-csr/hash3":  {"04d699f951dbb8631f4fd8d2379b1405ab8bceb665bc6631ef0711b14366b6a0", "5333ee2ef87c816abf1bc50b2aefccc033da6862793649f2dcaf020ead538519"},
		"planted/spmv-csr/k1":     {"fb6f9de54aae60ef3b8b990cefc6d65aeb516f0a341fb231c02acf637bd9217a", "a9696dcbc2bef81a08d6b1a798091d2b1a49654218d3ebdb12f9b255cbb1476f"},
	}
	for mName, m := range matrices {
		owners := map[string][]int32{
			"k1":     blockOwner(m.NumRows, 1),
			"block4": blockOwner(m.NumRows, 4),
			"hash3":  hashOwner(m.NumRows, 3, 0x5EED),
		}
		descents := 0
		for i := 1; i < len(owners["hash3"]); i++ {
			if owners["hash3"][i] < owners["hash3"][i-1] {
				descents++
			}
		}
		if descents == 0 {
			t.Fatalf("%s: seeded owner is monotone, so it cannot pin per-row attribution", mName)
		}
		for oName, owner := range owners {
			for gName, c := range ownedCases(t, m, owner, line) {
				key := mName + "/" + gName + "/" + oName
				stream, home := ownedDigests(c.owned)
				w, ok := want[key]
				if !ok {
					t.Errorf("no digest recorded for %s: %q: {%q, %q},", key, key, stream, home)
					continue
				}
				if stream != w[0] {
					t.Errorf("%s: stream digest %s, want %s", key, stream, w[0])
				}
				if home != w[1] {
					t.Errorf("%s: home digest %s, want %s", key, home, w[1])
				}
			}
		}
	}
}
