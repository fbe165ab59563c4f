package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// CacheKey returns the canonical content address of a Spec's
// deterministic outcome: the SHA-256, in lowercase hex, of the
// serialized program image, the fully resolved machine configuration,
// and the result-affecting run parameters (cycle budget, trace digest
// and ring settings, profiling). Every run in this repository is
// deterministic (DESIGN.md §6), so two Specs with equal keys produce
// bit-identical results — which is what makes a content-addressed
// result cache sound (DESIGN.md §9).
//
// Canonicalization folds syntactically different but semantically
// identical Specs onto one key:
//
//   - Config-vs-Cores: a Spec carrying an explicit *lbp.Config and one
//     declaring the equivalent Cores/SharedBankBytes hash the resolved
//     lbp.Config, not the request syntax.
//   - A zero MaxCycles hashes as the resolved default budget.
//   - Idle-cycle fast-forward is not part of a Spec at all: it is
//     results-neutral by construction (the equivalence matrix tests
//     prove it), so its one switch lives on lbp.Machine.
//   - Programs hash by serialized image, so MiniC source and the
//     lbp-asm image it compiles to share a key.
//
// Specs with devices have no key: device state lives outside the
// machine, so their runs are not pure functions of the Spec.
func CacheKey(spec Spec) (string, error) {
	if spec.Program == nil {
		return "", fmt.Errorf("sim: CacheKey requires a program")
	}
	if len(spec.Devices) > 0 {
		return "", fmt.Errorf("sim: a spec with devices has no cache key (device state is external)")
	}
	h := sha256.New()
	fmt.Fprintln(h, "lbp-result-key-v1")
	if err := spec.Program.WriteImage(h); err != nil {
		return "", err
	}
	max := spec.MaxCycles
	if max == 0 {
		max = defaultMaxCycles
	}
	// %#v over the resolved Config covers every machine parameter by
	// name, so adding a result-affecting field changes keys instead of
	// silently aliasing old entries.
	fmt.Fprintf(h, "cfg %#v\n", spec.machineConfig())
	fmt.Fprintf(h, "max %d digest %t ring %d profile %t\n",
		max, spec.Trace.Digest, spec.Trace.Ring, spec.Profile)
	return hex.EncodeToString(h.Sum(nil)), nil
}
