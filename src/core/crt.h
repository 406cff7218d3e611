#ifndef PRIMELABEL_CORE_CRT_H_
#define PRIMELABEL_CORE_CRT_H_

#include <cstdint>
#include <vector>

#include "bigint/bigint.h"
#include "util/status.h"

namespace primelabel {

/// One congruence x = remainder (mod modulus), modulus >= 2.
struct Congruence {
  std::uint64_t modulus;
  std::uint64_t remainder;
};

/// Solves a system of simultaneous congruences with pairwise-coprime moduli
/// (Theorem 1). Returns the unique solution in [0, prod(moduli)).
/// Fails with kInvalidArgument when the moduli are not pairwise coprime or
/// a remainder is not below its modulus.
///
/// Construction: x = sum_i (C/m_i) * inv(C/m_i mod m_i) * n_i mod C — the
/// classical CRT; equivalent to the paper's Euler-quotient form because
/// a^(phi(m)-1) = a^{-1} (mod m) for gcd(a, m) = 1.
Result<BigInt> SolveCrt(const std::vector<Congruence>& congruences);

/// Near-linear CRT solver on the subproduct-tree machinery
/// (bigint/reduction.h). SolveCrt spends O(g^2) limb work on a g-group —
/// one full product division and one BigInt egcd per congruence; this
/// variant gets every cofactor residue (C/m_i) mod m_i from a single
/// remainder-tree descent over the squared moduli (C mod m_i^2 equals
/// ((C/m_i) mod m_i) * m_i exactly), inverts in plain u64 arithmetic, and
/// assembles sum_i alpha_i * (C/m_i) bottom-up without materializing any
/// cofactor. Bit-identical to SolveCrt — both return the unique solution
/// in [0, C) — with the same preconditions and error behavior.
Result<BigInt> SolveCrtFast(const std::vector<Congruence>& congruences);

/// Number of SolveCrtFast calls since process start — the solves the SC
/// table pays for on inserts, deletes and unverifiable loads. Load paths
/// are required to adopt the persisted SC values instead; tests assert
/// that by differencing this counter around an open. Monotone,
/// thread-safe, test/diagnostic use only.
std::uint64_t CrtSolveCount();

/// The paper's own construction via Euler's totient:
/// x = sum_i (C/m_i)^phi(m_i) * n_i mod C. Provided for fidelity and used
/// by tests to cross-check SolveCrt. Same preconditions.
Result<BigInt> SolveCrtEuler(const std::vector<Congruence>& congruences);

/// Euler's totient function phi(n) for n >= 1, by trial-division
/// factorization (moduli here are node self-labels: small primes or prime
/// powers, so this is cheap).
std::uint64_t EulerTotientU64(std::uint64_t n);

}  // namespace primelabel

#endif  // PRIMELABEL_CORE_CRT_H_
