// The attacker zoo.
//
//   TrivialHashAdversary   — ignores the output; random predicate of a
//     chosen design weight (the Section 2.2 baseline attacker; 37% at
//     weight 1/n, negligible at negligible weight).
//   FixedValueAdversary    — the birthday attacker of Section 2.2 ("x ==
//     Apr-30"), a special case of the above.
//   CountTunedAdversary    — best-effort attacker against count outputs:
//     refines the counted predicate with a hash of range = released count.
//   KAnonHashAdversary     — Theorem 2.10 (equivalence class + 1/k' hash).
//   KAnonMinimalityAdversary — Cohen-style downcoding via tight ranges.
//   UniqueRecordAdversary  — reads a verbatim Dataset output and singles
//     out its rarest unique record (breaks the Identity mechanism).
//   DecryptPairAdversary   — Theorem 2.7: recombines the ciphertext/pad
//     bundle into the exact first record.

#ifndef PSO_PSO_ADVERSARIES_H_
#define PSO_PSO_ADVERSARIES_H_

#include <cstdint>

#include "pso/adversary.h"

namespace pso {

/// Output-ignoring attacker emitting a fresh universal-hash predicate of
/// design weight `weight` each trial.
AdversaryRef MakeTrivialHashAdversary(double weight);

/// Output-ignoring attacker emitting "attr == value" every trial.
AdversaryRef MakeFixedValueAdversary(size_t attr, int64_t value,
                                     std::string attr_name = "");

/// Against count outputs of the known query `q`: outputs q AND hash with
/// range max(2, round(count)), hoping q's weight divides down below the
/// budget. Concedes when even the refined design weight exceeds it.
AdversaryRef MakeCountTunedAdversary(PredicateRef q, std::string query_name);

/// Theorem 2.10 attacker (kanon::HashIsolationPredicate).
AdversaryRef MakeKAnonHashAdversary();

/// Downcoding/minimality attacker (kanon::MinimalityIsolationPredicate).
AdversaryRef MakeKAnonMinimalityAdversary();

/// Reads a Dataset payload (the Identity mechanism) and outputs
/// RecordEquals on a unique record of minimal probability under D.
AdversaryRef MakeUniqueRecordAdversary();

/// Theorem 2.7 attacker: expects a bundle (ciphertext, pad key), decrypts
/// x_1 and outputs RecordEquals(x_1).
AdversaryRef MakeDecryptPairAdversary();

}  // namespace pso

#endif  // PSO_PSO_ADVERSARIES_H_
