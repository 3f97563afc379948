package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/appcorpus"
	"repro/internal/debloat"
	"repro/internal/pyruntime"
)

// digests.json holds the simulated outputs the benchmark checks against:
// one digest per corpus app for debloat_corpus (the seed only reorders the
// corpus, so one set serves every seed) and one per recorded population
// seed for the fleet workloads. Regenerate it with --write-digests only
// when a change is meant to move a simulated observable.
//
//go:embed digests.json
var digestsJSON []byte

// Digests maps workload → key (app name or seed) → hex digest.
type Digests map[string]map[string]string

func loadDigests() (Digests, error) {
	var d Digests
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// digestOf hashes parts with length prefixes, so part boundaries count.
func digestOf(parts ...[]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// appDigest covers what debloating an app decided: the attributes removed
// from each module (or why it was skipped), the oracle runs spent, and
// the virtual debloating time.
func appDigest(res *debloat.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "app %s\n", res.Original.Name)
	for _, m := range res.Modules {
		fmt.Fprintf(&b, "module %s skipped=%q removed=%s\n", m.Module, m.Skipped, strings.Join(m.Removed, ","))
	}
	fmt.Fprintf(&b, "oracle_runs %d\ndebloat_ns %d\n", res.OracleRuns, res.DebloatTime.Nanoseconds())
	return digestOf([]byte(b.String()))
}

// recordedFleetSeeds are the population seeds whose fleet digests are
// recorded; any other seed is checked against a one-worker replay.
const recordedFleetSeeds = 10

// recordDigests recomputes every recorded digest, outside any timing:
// the corpus at the default configuration in catalog order, and both
// fleet workloads on one worker for each recorded seed.
func recordDigests(path string) error {
	d := Digests{"debloat_corpus": {}, "fleet_day": {}, "fleet_chaos": {}}
	cfg := debloat.DefaultConfig()
	cfg.Snapshots = pyruntime.NewSnapshotCache()
	cfg.ASTCache = pyruntime.NewASTCache()
	for _, def := range appcorpus.Catalog() {
		res, err := debloat.Run(def.Build(), cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", def.Name, err)
		}
		if err := debloat.VerifyApp(res.App); err != nil {
			return fmt.Errorf("%s: %w", def.Name, err)
		}
		d["debloat_corpus"][def.Name] = appDigest(res)
	}
	for _, chaosDay := range []bool{false, true} {
		for seed := int64(1); seed <= recordedFleetSeeds; seed++ {
			fd, err := newFleetDay(seed, chaosDay)
			if err != nil {
				return err
			}
			dg, err := fd.reference()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", fd.name, seed, err)
			}
			d[fd.name][strconv.FormatInt(seed, 10)] = dg
		}
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
