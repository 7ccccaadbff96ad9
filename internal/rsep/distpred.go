package rsep

import (
	"math/rand"

	"rsepsim/internal/ckpt"
	"rsepsim/internal/predictor"
)

// DistLookup carries a distance prediction and the prediction-time state
// needed to train the predictor at commit. Dist == 0 means "no distance
// known". UsePred and Train reflect the configured confidence thresholds
// (§IV-B3a: use_pred gates prediction, start_train marks likely candidates
// that keep training through the validation path under sampling).
type DistLookup struct {
	Dist    uint16
	UsePred bool
	Train   bool

	tage   predictor.TAGELookup[uint16]
	gshare predictor.GShareLookup[uint16]
	isTage bool
}

// DistPredictor predicts instruction distances for static instructions.
type DistPredictor interface {
	// Lookup predicts the IDist for pc under the global branch/path
	// history.
	Lookup(pc uint64, hist *predictor.GlobalHistory) DistLookup
	// LookupInto is Lookup writing its result in place (the pipeline
	// points it at arena-resident scratch so prediction state carried by
	// an inflight instruction never moves and never heap-allocates).
	LookupInto(lk *DistLookup, pc uint64, hist *predictor.GlobalHistory)
	// Update trains with the observed distance (0 = no pair found) and
	// reports whether the lookup had predicted it.
	Update(lk *DistLookup, observed uint16) bool
	// StorageBits accounts the predictor's storage.
	StorageBits() int
	// HistoryWidths returns the fold widths needed from the global
	// history.
	HistoryWidths() []int
	// HistoryLengths returns the geometric history lengths.
	HistoryLengths() []int
	// Reset clears all learned state in place, as if freshly constructed.
	Reset()
	// Walk hands all learned state to a checkpoint stream.
	Walk(s *ckpt.Stream)
}

// TAGEDistConfig sizes the TAGE-based distance predictor.
type TAGEDistConfig struct {
	BaseEntries   int
	TaggedEntries int
	TagBits       []int // per component, shortest history first
	HistLens      []int
	DistBits      int // 8 for a 256-entry ROB (§IV-D2d)

	UsePredThreshold    int // confidence to predict (255)
	StartTrainThreshold int // confidence to become a "likely candidate" (sampling)
}

// IdealTAGEDist is the large §IV-C configuration: six 1K-entry components
// with 13..18-bit tags on top of a 16K-entry base — 42.6KB.
func IdealTAGEDist() TAGEDistConfig {
	return TAGEDistConfig{
		BaseEntries:         16 * 1024,
		TaggedEntries:       1024,
		TagBits:             []int{13, 14, 15, 16, 17, 18},
		HistLens:            []int{2, 4, 8, 16, 32, 64},
		DistBits:            8,
		UsePredThreshold:    255,
		StartTrainThreshold: 0,
	}
}

// RealisticTAGEDist is the §VI-B configuration: a 2K-entry base, six
// 512-entry components with 5..10-bit tags — 10.1KB.
func RealisticTAGEDist() TAGEDistConfig {
	return TAGEDistConfig{
		BaseEntries:         2 * 1024,
		TaggedEntries:       512,
		TagBits:             []int{5, 6, 7, 8, 9, 10},
		HistLens:            []int{2, 4, 8, 16, 32, 64},
		DistBits:            8,
		UsePredThreshold:    255,
		StartTrainThreshold: 63,
	}
}

// TAGEDist is the TAGE-like distance predictor (§IV-C), built on the generic
// payload TAGE engine.
type TAGEDist struct {
	cfg  TAGEDistConfig
	tage *predictor.TAGE[uint16]
	conf predictor.ConfPolicy
}

// NewTAGEDist builds the predictor. conf may be nil (deterministic policy).
func NewTAGEDist(cfg TAGEDistConfig, conf predictor.ConfPolicy, rng *rand.Rand) *TAGEDist {
	if conf == nil {
		conf = predictor.DetPolicy{}
	}
	tcfg := predictor.TAGEConfig{
		BaseEntries: cfg.BaseEntries,
		HistLens:    cfg.HistLens,
		TagBits:     cfg.TagBits,
		PayloadBits: cfg.DistBits,
		UBits:       1,
	}
	for range cfg.TagBits {
		tcfg.TableEntries = append(tcfg.TableEntries, cfg.TaggedEntries)
	}
	return &TAGEDist{cfg: cfg, tage: predictor.NewTAGE[uint16](tcfg, conf, rng), conf: conf}
}

// Lookup implements DistPredictor.
func (d *TAGEDist) Lookup(pc uint64, hist *predictor.GlobalHistory) DistLookup {
	var lk DistLookup
	d.LookupInto(&lk, pc, hist)
	return lk
}

// LookupInto implements DistPredictor.
func (d *TAGEDist) LookupInto(lk *DistLookup, pc uint64, hist *predictor.GlobalHistory) {
	lk.Dist, lk.UsePred, lk.Train, lk.isTage = 0, false, false, true
	d.tage.LookupInto(&lk.tage, pc, hist)
	lk.Dist = lk.tage.Payload
	if lk.Dist != 0 {
		lk.UsePred = d.conf.AtLeast(lk.tage.Conf, d.cfg.UsePredThreshold)
		lk.Train = d.cfg.StartTrainThreshold > 0 &&
			d.conf.AtLeast(lk.tage.Conf, d.cfg.StartTrainThreshold)
	}
}

// Update implements DistPredictor.
func (d *TAGEDist) Update(lk *DistLookup, observed uint16) bool {
	return d.tage.Update(&lk.tage, observed)
}

// StorageBits implements DistPredictor.
func (d *TAGEDist) StorageBits() int {
	tcfg := predictor.TAGEConfig{
		BaseEntries: d.cfg.BaseEntries,
		HistLens:    d.cfg.HistLens,
		TagBits:     d.cfg.TagBits,
		PayloadBits: d.cfg.DistBits,
		UBits:       1,
	}
	for range d.cfg.TagBits {
		tcfg.TableEntries = append(tcfg.TableEntries, d.cfg.TaggedEntries)
	}
	return tcfg.StorageBits(d.conf.Bits())
}

// HistoryWidths implements DistPredictor.
func (d *TAGEDist) HistoryWidths() []int {
	w := make([]int, len(d.cfg.HistLens))
	for i := range w {
		n, b := d.cfg.TaggedEntries, 0
		for 1<<uint(b) < n {
			b++
		}
		w[i] = b
	}
	return w
}

// HistoryLengths implements DistPredictor.
func (d *TAGEDist) HistoryLengths() []int { return d.cfg.HistLens }

// Reset implements DistPredictor.
func (d *TAGEDist) Reset() { d.tage.Reset() }

// GShareDist is the gshare-like distance predictor of Sha et al. (§IV-C),
// kept as the baseline the TAGE predictor is compared against.
type GShareDist struct {
	g          *predictor.GShare[uint16]
	conf       predictor.ConfPolicy
	usePred    int
	startTrain int
	entries    int
	distBits   int
	histLen    int
}

// NewGShareDist builds a two-table gshare distance predictor.
func NewGShareDist(pcEntries, ghEntries, histLen, distBits, usePred, startTrain int, conf predictor.ConfPolicy) *GShareDist {
	if conf == nil {
		conf = predictor.DetPolicy{}
	}
	return &GShareDist{
		g:          predictor.NewGShare[uint16](pcEntries, ghEntries, histLen, conf),
		conf:       conf,
		usePred:    usePred,
		startTrain: startTrain,
		entries:    pcEntries + ghEntries,
		distBits:   distBits,
		histLen:    histLen,
	}
}

// Lookup implements DistPredictor.
func (d *GShareDist) Lookup(pc uint64, hist *predictor.GlobalHistory) DistLookup {
	var lk DistLookup
	d.LookupInto(&lk, pc, hist)
	return lk
}

// LookupInto implements DistPredictor.
func (d *GShareDist) LookupInto(lk *DistLookup, pc uint64, hist *predictor.GlobalHistory) {
	lk.Dist, lk.UsePred, lk.Train, lk.isTage = 0, false, false, false
	lk.gshare = d.g.Lookup(pc, hist)
	lk.Dist = lk.gshare.Payload
	if lk.Dist != 0 {
		lk.UsePred = d.conf.AtLeast(lk.gshare.Conf, d.usePred)
		lk.Train = d.startTrain > 0 && d.conf.AtLeast(lk.gshare.Conf, d.startTrain)
	}
}

// Update implements DistPredictor.
func (d *GShareDist) Update(lk *DistLookup, observed uint16) bool {
	return d.g.Update(&lk.gshare, observed)
}

// StorageBits implements DistPredictor.
func (d *GShareDist) StorageBits() int {
	return d.entries * (d.distBits + d.conf.Bits())
}

// HistoryWidths implements DistPredictor.
func (d *GShareDist) HistoryWidths() []int { return []int{16} }

// HistoryLengths implements DistPredictor.
func (d *GShareDist) HistoryLengths() []int { return []int{d.histLen} }

// Reset implements DistPredictor.
func (d *GShareDist) Reset() { d.g.Reset() }
