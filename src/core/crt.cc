#include "core/crt.h"

#include <atomic>
#include <numeric>

#include "bigint/reduction.h"

namespace primelabel {

namespace {

using U128 = unsigned __int128;

std::atomic<std::uint64_t> g_crt_solve_count{0};

Status ValidateSystem(const std::vector<Congruence>& congruences) {
  if (congruences.empty()) {
    return Status::InvalidArgument("empty congruence system");
  }
  for (const Congruence& c : congruences) {
    if (c.modulus < 2) {
      return Status::InvalidArgument("modulus must be >= 2");
    }
    if (c.remainder >= c.modulus) {
      return Status::InvalidArgument("remainder must be below its modulus");
    }
  }
  for (std::size_t i = 0; i < congruences.size(); ++i) {
    for (std::size_t j = i + 1; j < congruences.size(); ++j) {
      if (std::gcd(congruences[i].modulus, congruences[j].modulus) != 1) {
        return Status::InvalidArgument("moduli are not pairwise coprime");
      }
    }
  }
  return Status::Ok();
}

BigInt ProductOfModuli(const std::vector<Congruence>& congruences) {
  BigInt product(1);
  for (const Congruence& c : congruences) {
    product *= BigInt::FromUint64(c.modulus);
  }
  return product;
}

/// a^{-1} mod m by the extended Euclid in 128-bit signed arithmetic;
/// requires gcd(a, m) == 1 and m >= 2.
std::uint64_t InverseModU64(std::uint64_t a, std::uint64_t m) {
  __int128 t = 0;
  __int128 next_t = 1;
  std::uint64_t r = m;
  std::uint64_t next_r = a % m;
  while (next_r != 0) {
    std::uint64_t q = r / next_r;
    __int128 tmp_t = t - static_cast<__int128>(q) * next_t;
    t = next_t;
    next_t = tmp_t;
    std::uint64_t tmp_r = r - q * next_r;
    r = next_r;
    next_r = tmp_r;
  }
  PL_CHECK(r == 1);  // coprimality was validated
  if (t < 0) t += m;
  return static_cast<std::uint64_t>(t);
}

/// Low 128 bits of a nonnegative BigInt known to fit them.
U128 ToUint128(const BigInt& value) {
  U128 result = 0;
  auto limbs = value.Magnitude();
  for (std::size_t i = limbs.size(); i-- > 0;) {
    result = (result << 64) | limbs[i];
  }
  return result;
}

}  // namespace

Result<BigInt> SolveCrt(const std::vector<Congruence>& congruences) {
  Status valid = ValidateSystem(congruences);
  if (!valid.ok()) return valid;
  const BigInt product = ProductOfModuli(congruences);
  BigInt solution(0);
  for (const Congruence& c : congruences) {
    const BigInt modulus = BigInt::FromUint64(c.modulus);
    const BigInt partial = product / modulus;  // C / m_i
    Result<BigInt> inverse = BigInt::ModInverse(partial % modulus, modulus);
    PL_CHECK(inverse.ok());  // guaranteed by pairwise coprimality
    solution += partial * inverse.value() * BigInt::FromUint64(c.remainder);
  }
  return solution.EuclideanMod(product);
}

std::uint64_t CrtSolveCount() {
  return g_crt_solve_count.load(std::memory_order_relaxed);
}

Result<BigInt> SolveCrtFast(const std::vector<Congruence>& congruences) {
  g_crt_solve_count.fetch_add(1, std::memory_order_relaxed);
  Status valid = ValidateSystem(congruences);
  if (!valid.ok()) return valid;

  std::vector<std::uint64_t> moduli;
  moduli.reserve(congruences.size());
  std::vector<BigInt> squares;
  squares.reserve(congruences.size());
  for (const Congruence& c : congruences) {
    moduli.push_back(c.modulus);
    BigInt m = BigInt::FromUint64(c.modulus);
    squares.push_back(m * m);
  }

  // One tree over the moduli gives C and the final combination; one over
  // their squares turns all g cofactor residues into a single descent:
  // C = (C/m_i) * m_i, so C mod m_i^2 = ((C/m_i) mod m_i) * m_i, and the
  // division by m_i below is exact.
  SubproductTree tree(moduli);
  SubproductTree squares_tree(std::move(squares));
  const BigInt& product = tree.product();

  std::vector<BigInt> square_rems;
  squares_tree.RemaindersOf(product, &square_rems);

  std::vector<std::uint64_t> alpha(congruences.size());
  for (std::size_t i = 0; i < congruences.size(); ++i) {
    std::uint64_t m = moduli[i];
    std::uint64_t cofactor_rem =
        static_cast<std::uint64_t>(ToUint128(square_rems[i]) / m);
    std::uint64_t inverse = InverseModU64(cofactor_rem % m, m);
    alpha[i] = static_cast<std::uint64_t>(
        static_cast<U128>(inverse) * (congruences[i].remainder % m) % m);
  }
  // sum_i alpha_i * (C/m_i) is congruent to n_i mod m_i for every i; its
  // Euclidean residue mod C is the unique solution SolveCrt returns.
  return tree.CombineResidues(alpha).EuclideanMod(product);
}

Result<BigInt> SolveCrtEuler(const std::vector<Congruence>& congruences) {
  Status valid = ValidateSystem(congruences);
  if (!valid.ok()) return valid;
  const BigInt product = ProductOfModuli(congruences);
  BigInt solution(0);
  for (const Congruence& c : congruences) {
    const BigInt modulus = BigInt::FromUint64(c.modulus);
    const BigInt partial = product / modulus;  // C / m_i
    // (C/m_i)^phi(m_i) = 1 (mod m_i) and = 0 (mod m_j), j != i.
    const BigInt phi =
        BigInt::FromUint64(EulerTotientU64(c.modulus));
    solution += BigInt::PowMod(partial, phi, product) *
                BigInt::FromUint64(c.remainder);
  }
  return solution.EuclideanMod(product);
}

std::uint64_t EulerTotientU64(std::uint64_t n) {
  PL_CHECK(n >= 1);
  std::uint64_t result = n;
  std::uint64_t remaining = n;
  for (std::uint64_t p = 2; p * p <= remaining; ++p) {
    if (remaining % p != 0) continue;
    while (remaining % p == 0) remaining /= p;
    result -= result / p;
  }
  if (remaining > 1) result -= result / remaining;
  return result;
}

}  // namespace primelabel
