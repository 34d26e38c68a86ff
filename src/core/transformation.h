/// The transformation rule language T of the [JMM95] framework, specialized
/// to sequence objects.
///
/// A rule rewrites a series and carries a nonnegative cost (the framework
/// measures similarity as the cheapest rule sequence that reduces one object
/// to another; see core/similarity.h). Rules that act as element-wise
/// multipliers on DFT coefficients additionally expose their spectral form,
/// which is what makes them *index-accelerable*: the engine lowers the
/// multiplier onto the feature space (geom/linear_transform.h) and evaluates
/// the query through the packed R-tree (Algorithm 2 of [RM97]).

#ifndef SIMQ_CORE_TRANSFORMATION_H_
#define SIMQ_CORE_TRANSFORMATION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "geom/linear_transform.h"
#include "ts/dft.h"
#include "util/status.h"

namespace simq {

class TransformationRule {
 public:
  virtual ~TransformationRule() = default;

  virtual std::string name() const = 0;

  // Cost charged when the rule is used in a similarity derivation.
  virtual double cost() const = 0;

  // Length of the output series for an input of length n (time warping
  // stretches it; everything else preserves it). Computed in 64 bits: a
  // warp chain can stretch past INT_MAX, and the engine rejects such a
  // rule instead of running it at a wrapped length.
  virtual int64_t OutputLength(int64_t input_length) const {
    return input_length;
  }

  // Time-domain application; the reference semantics of the rule.
  virtual std::vector<double> Apply(
      const std::vector<double>& series) const = 0;

  // Spectral form: the rule acts on the unitary DFT of a length-n input as
  //   DFT(T(x))_f = Multiplier(f, n) * X_{f mod n},  f < OutputLength(n).
  // Returns nullopt if the rule has no such form (then only scan execution
  // is possible).
  virtual std::optional<Complex> Multiplier(int f, int n) const {
    (void)f;
    (void)n;
    return std::nullopt;
  }

  // True if the rule is the identity on normal forms (e.g. value shifts and
  // positive scales, the [GK95] transformations): under normal-form
  // distance semantics the engine can drop it entirely.
  virtual bool IsNormalFormInvariant() const { return false; }

  bool IsSpectral(int n) const { return Multiplier(0, n).has_value(); }

  // Index-level linear transform over the first k coefficients (frequencies
  // 1..k) of a length-n input, or nullopt for non-spectral rules.
  std::optional<LinearTransform> IndexTransform(int n, int k) const;
};

// identity: T(x) = x.
std::unique_ptr<TransformationRule> MakeIdentityRule(double cost = 0.0);

// mavg(w): w-day circular moving average (Equation 11).
std::unique_ptr<TransformationRule> MakeMovingAverageRule(int window,
                                                          double cost = 0.0);

// wmavg: weighted circular moving average with explicit window weights.
std::unique_ptr<TransformationRule> MakeWeightedMovingAverageRule(
    std::vector<double> weights, double cost = 0.0);

// reverse: T(x) = -x (Example 2.2, opposite price movements).
std::unique_ptr<TransformationRule> MakeReverseRule(double cost = 0.0);

// warp(m): time dimension stretched by integer factor m (Appendix A).
std::unique_ptr<TransformationRule> MakeTimeWarpRule(int warp_factor,
                                                     double cost = 0.0);

// shift(c): T(x)_i = x_i + c. Normal-form invariant.
std::unique_ptr<TransformationRule> MakeShiftRule(double amount,
                                                  double cost = 0.0);

// scale(c): T(x)_i = c * x_i. Normal-form invariant for c > 0; for c < 0 it
// is `reverse` composed with a positive scale.
std::unique_ptr<TransformationRule> MakeScaleRule(double factor,
                                                  double cost = 0.0);

// diff: circular first difference T(x)_i = x_i - x_{i-1 mod n}; compares
// day-over-day changes instead of levels. Spectral with multiplier
// 1 - e^{-j 2 pi f / n}.
std::unique_ptr<TransformationRule> MakeDifferenceRule(double cost = 0.0);

// ewma(alpha): circular exponentially-weighted moving average with decay
// alpha in (0, 1]; trend smoothing that weights recent days more (the
// "weights at the end are usually chosen to be higher" variant of
// Equation 11). Spectral (a weighted moving average).
std::unique_ptr<TransformationRule> MakeExponentialSmoothingRule(
    double alpha, double cost = 0.0);

// smooth-spike removal: clamps single-sample spikes to the average of their
// neighbors. Deliberately non-spectral: exercises the scan-only path.
std::unique_ptr<TransformationRule> MakeDespikeRule(double spike_threshold,
                                                    double cost = 0.0);

// Sequential composition: rules[0] first. Cost is the sum of member costs;
// spectral iff every member is spectral and length-preserving (a trailing
// warp is also allowed).
std::unique_ptr<TransformationRule> MakeCompositeRule(
    std::vector<std::unique_ptr<TransformationRule>> rules);

// Largest mavg window and warp factor MakeRuleByName accepts. A mavg rule
// allocates its window when it is built, at parse time, so the bound keeps
// one query text from allocating without limit (ewma caps its tail at 512
// weights for the same reason).
inline constexpr int kMaxRuleIntegerArg = 1 << 16;

// `value` as an int when it is a whole number in [1, limit]; nullopt
// otherwise (NaN and the infinities included). Every integer the query
// text carries (NEAREST k, mavg windows, warp factors) passes through it,
// so no out-of-range double is ever cast to int.
std::optional<int> PositiveIntegerArg(double value, int limit);

// Factory used by the query-language parser: name plus numeric arguments.
// Recognized: identity | mavg(w) | reverse | warp(m) | shift(c) | scale(c)
// | despike(t), each with an optional trailing cost argument; w and m are
// whole numbers in [1, kMaxRuleIntegerArg], and every argument must be
// finite.
Result<std::unique_ptr<TransformationRule>> MakeRuleByName(
    const std::string& name, const std::vector<double>& args);

}  // namespace simq

#endif  // SIMQ_CORE_TRANSFORMATION_H_
