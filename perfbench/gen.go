package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/instrument"
	"github.com/memgaze/memgaze-go/internal/pt"
)

// The synthetic capture: 4 procedures with 4 ptwrite sites each. Each
// procedure has two strided sites, one hot-irregular site (a small hot
// set that stays cache resident) and one wide-irregular site (a large
// range that defeats every cache size the MRC asks about) — the three
// instrumented load classes of §III. The procedures run in phases of a
// few hundred loads, so windows, the interval tree and the zoom tree
// all see structure rather than noise.
const (
	genProcs        = 4
	genSitesPerProc = 4
	genLoads        = 100_000 // ≈55k records and ≈0.5 MB per capture
	genPeriod       = 500
	genBufBytes     = 8 << 10
	genPhaseLoads   = 400
	genHotBlocks    = 256     // hot-irregular set: 16 KiB of lines
	genWideBlocks   = 1 << 20 // wide-irregular range: 64 MiB of lines
	genSiteBase     = 0x401000
	genSiteStep     = 0x10
)

// siteKind is the load class of one ptwrite site.
type siteKind int

const (
	kindStrided siteKind = iota
	kindHot
	kindWide
)

// kindOf lays out each procedure's sites: strided, strided, hot, wide.
func kindOf(site int) siteKind {
	switch site % genSitesPerProc {
	case 2:
		return kindHot
	case 3:
		return kindWide
	default:
		return kindStrided
	}
}

// annotations is the module's annotation file: one instrumented load
// behind each ptwrite site.
func annotations() *instrument.Annotations {
	notes := &instrument.Annotations{
		Module:   "perfbench",
		Loads:    map[uint64]*instrument.LoadNote{},
		PTWrites: map[uint64]*instrument.PTWNote{},
		AddrMap:  map[uint64]uint64{},
	}
	for site := 0; site < genProcs*genSitesPerProc; site++ {
		ptw := uint64(genSiteBase + site*genSiteStep)
		load := ptw + 5
		class, stride := dataflow.Irregular, int64(0)
		if kindOf(site) == kindStrided {
			class, stride = dataflow.Strided, 8
		}
		notes.PTWrites[ptw] = &instrument.PTWNote{PTWAddr: ptw, LoadAddr: load,
			Operand: instrument.OpndBase, NumOperands: 1}
		notes.Loads[load] = &instrument.LoadNote{LoadAddr: load,
			Proc: fmt.Sprintf("proc%d", site/genSitesPerProc), Line: int32(10 + site),
			Class: class, Stride: stride, Instrumented: true}
		notes.NumLoads++
		notes.NumInstrumented++
		notes.NumPTWrites++
	}
	return notes
}

// genCapture builds the serialised PT capture of operation op under
// seed at the generator's standard size. Identical (seed, op) pairs give byte-identical captures;
// distinct op indices give distinct address streams, so no upload
// deduplicates against an earlier one and no analysis hits the result
// cache.
func genCapture(seed uint64, op int) ([]byte, error) {
	return genCaptureLoads(seed, op, genLoads)
}

// genCaptureLoads is genCapture at a chosen number of loads.
func genCaptureLoads(seed uint64, op, loads int) ([]byte, error) {
	rng := rand.New(rand.NewPCG(seed, uint64(op)))
	col := pt.NewCollector(pt.Config{Mode: pt.ModeContinuous, Period: genPeriod,
		BufBytes: genBufBytes, Seed: rng.Uint64()})
	// Every operation's data lives at its own base, so even the
	// strided sites differ between operations.
	base := 0x1000_0000 + rng.Uint64N(1<<20)*4096
	var strided [genProcs * genSitesPerProc]uint64
	ts := uint64(0)
	for done := 0; done < loads; {
		proc := rng.IntN(genProcs)
		n := min(genPhaseLoads/2+rng.IntN(genPhaseLoads), loads-done)
		for i := 0; i < n; i++ {
			site := proc*genSitesPerProc + rng.IntN(genSitesPerProc)
			var addr uint64
			switch kindOf(site) {
			case kindStrided:
				strided[site] += 8
				addr = base + uint64(site)<<24 + strided[site]%(1<<22)
			case kindHot:
				addr = base + 0x8000_0000 + uint64(proc)<<16 + rng.Uint64N(genHotBlocks)*64
			case kindWide:
				addr = base + 0x1_0000_0000 + rng.Uint64N(genWideBlocks)*64
			}
			ts += 3 + rng.Uint64N(8)
			col.PTWrite(uint64(genSiteBase+site*genSiteStep), addr, ts)
			col.OnLoad(ts)
		}
		done += n
	}
	cp, err := col.Capture(annotations())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := cp.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
