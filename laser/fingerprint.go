package laser

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Fingerprint returns a short, stable content hash over every
// configuration field that can influence simulated results: core count,
// PEBS sampling model, driver and detector parameters, repair settings,
// poll cadence and cycle/epoch budgets. Two configurations with equal
// fingerprints produce byte-identical runs of the same workload image.
//
// The experiment harness uses the fingerprint as the configuration
// component of its persistent run-cache keys.
func (c Config) Fingerprint() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", c)))
	return hex.EncodeToString(sum[:12])
}
