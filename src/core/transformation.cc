#include "core/transformation.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <utility>

#include "ts/transforms.h"
#include "util/logging.h"

namespace simq {
namespace {

// Renders a rule's double argument at full round-trip precision
// (max_digits10): name() is the canonical textual identity of a rule --
// the parser reconstructs rules from it and the query service fingerprints
// cache entries with it -- so two rules that behave differently must never
// print identically. Integer-valued doubles keep their short form.
std::string FormatRuleArg(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

class IdentityRule : public TransformationRule {
 public:
  explicit IdentityRule(double cost) : cost_(cost) {}
  std::string name() const override { return "identity"; }
  double cost() const override { return cost_; }
  std::vector<double> Apply(const std::vector<double>& series) const override {
    return series;
  }
  std::optional<Complex> Multiplier(int f, int n) const override {
    (void)f;
    (void)n;
    return Complex(1.0, 0.0);
  }
  bool IsNormalFormInvariant() const override { return true; }

 private:
  double cost_;
};

class WeightedMovingAverageRule : public TransformationRule {
 public:
  WeightedMovingAverageRule(std::vector<double> weights, std::string name,
                            double cost)
      : weights_(std::move(weights)), name_(std::move(name)), cost_(cost) {
    SIMQ_CHECK(!weights_.empty());
  }
  std::string name() const override { return name_; }
  double cost() const override { return cost_; }
  std::vector<double> Apply(const std::vector<double>& series) const override {
    // Kernels longer than the series fold modulo n: circular convolution
    // wraps them anyway (needed for long exponential-smoothing tails on
    // short series).
    if (weights_.size() <= series.size()) {
      return WeightedCircularMovingAverage(series, weights_);
    }
    std::vector<double> folded(series.size(), 0.0);
    for (size_t t = 0; t < weights_.size(); ++t) {
      folded[t % series.size()] += weights_[t];
    }
    return WeightedCircularMovingAverage(series, folded);
  }
  std::optional<Complex> Multiplier(int f, int n) const override {
    // e^{-j 2 pi t f / n} is periodic in t with period n, so weights past
    // the series length fold automatically.
    Complex sum(0.0, 0.0);
    for (size_t t = 0; t < weights_.size(); ++t) {
      const double phase = -2.0 * M_PI * static_cast<double>(t) *
                           static_cast<double>(f) / static_cast<double>(n);
      sum += weights_[t] * Complex(std::cos(phase), std::sin(phase));
    }
    return sum;
  }

 private:
  std::vector<double> weights_;
  std::string name_;
  double cost_;
};

class ReverseRule : public TransformationRule {
 public:
  explicit ReverseRule(double cost) : cost_(cost) {}
  std::string name() const override { return "reverse"; }
  double cost() const override { return cost_; }
  std::vector<double> Apply(const std::vector<double>& series) const override {
    return ReverseSeries(series);
  }
  std::optional<Complex> Multiplier(int f, int n) const override {
    (void)f;
    (void)n;
    return Complex(-1.0, 0.0);
  }

 private:
  double cost_;
};

class TimeWarpRule : public TransformationRule {
 public:
  TimeWarpRule(int warp_factor, double cost)
      : warp_factor_(warp_factor), cost_(cost) {
    SIMQ_CHECK_GT(warp_factor_, 0);
  }
  std::string name() const override {
    std::ostringstream out;
    out << "warp(" << warp_factor_ << ")";
    return out.str();
  }
  double cost() const override { return cost_; }
  int64_t OutputLength(int64_t input_length) const override {
    return input_length * warp_factor_;
  }
  std::vector<double> Apply(const std::vector<double>& series) const override {
    return TimeWarpSeries(series, warp_factor_);
  }
  std::optional<Complex> Multiplier(int f, int n) const override {
    // Appendix A with the corrected unitary normalization: the multiplier
    // connecting X_{f mod n} of the input to coefficient f of the warped,
    // length m*n output.
    const double mn =
        static_cast<double>(warp_factor_) * static_cast<double>(n);
    Complex sum(0.0, 0.0);
    for (int t = 0; t < warp_factor_; ++t) {
      const double phase =
          -2.0 * M_PI * static_cast<double>(t) * static_cast<double>(f) / mn;
      sum += Complex(std::cos(phase), std::sin(phase));
    }
    return sum / std::sqrt(static_cast<double>(warp_factor_));
  }

 private:
  int warp_factor_;
  double cost_;
};

class ShiftRule : public TransformationRule {
 public:
  ShiftRule(double amount, double cost) : amount_(amount), cost_(cost) {}
  std::string name() const override {
    std::ostringstream out;
    out << "shift(" << FormatRuleArg(amount_) << ")";
    return out.str();
  }
  double cost() const override { return cost_; }
  std::vector<double> Apply(const std::vector<double>& series) const override {
    std::vector<double> out(series.size());
    for (size_t i = 0; i < series.size(); ++i) {
      out[i] = series[i] + amount_;
    }
    return out;
  }
  // A shift moves only DFT coefficient 0, which the normal-form index drops;
  // it is not an element-wise multiplier, but it is invisible to normal-form
  // distance semantics.
  bool IsNormalFormInvariant() const override { return true; }

 private:
  double amount_;
  double cost_;
};

class ScaleRule : public TransformationRule {
 public:
  ScaleRule(double factor, double cost) : factor_(factor), cost_(cost) {}
  std::string name() const override {
    std::ostringstream out;
    out << "scale(" << FormatRuleArg(factor_) << ")";
    return out.str();
  }
  double cost() const override { return cost_; }
  std::vector<double> Apply(const std::vector<double>& series) const override {
    std::vector<double> out(series.size());
    for (size_t i = 0; i < series.size(); ++i) {
      out[i] = factor_ * series[i];
    }
    return out;
  }
  std::optional<Complex> Multiplier(int f, int n) const override {
    (void)f;
    (void)n;
    return Complex(factor_, 0.0);
  }
  bool IsNormalFormInvariant() const override { return factor_ > 0.0; }

 private:
  double factor_;
  double cost_;
};

class DifferenceRule : public TransformationRule {
 public:
  explicit DifferenceRule(double cost) : cost_(cost) {}
  std::string name() const override { return "diff"; }
  double cost() const override { return cost_; }
  std::vector<double> Apply(const std::vector<double>& series) const override {
    const size_t n = series.size();
    std::vector<double> out(n);
    for (size_t i = 0; i < n; ++i) {
      out[i] = series[i] - series[(i + n - 1) % n];
    }
    return out;
  }
  std::optional<Complex> Multiplier(int f, int n) const override {
    // T(x) = circconv(x, (1, -1, 0, ...)): multiplier is the unnormalized
    // DFT of the kernel, 1 - e^{-j 2 pi f / n}.
    const double phase =
        -2.0 * M_PI * static_cast<double>(f) / static_cast<double>(n);
    return Complex(1.0, 0.0) - Complex(std::cos(phase), std::sin(phase));
  }

 private:
  double cost_;
};

class DespikeRule : public TransformationRule {
 public:
  DespikeRule(double threshold, double cost)
      : threshold_(threshold), cost_(cost) {
    SIMQ_CHECK_GE(threshold_, 0.0);
  }
  std::string name() const override {
    std::ostringstream out;
    out << "despike(" << FormatRuleArg(threshold_) << ")";
    return out.str();
  }
  double cost() const override { return cost_; }
  std::vector<double> Apply(const std::vector<double>& series) const override {
    const size_t n = series.size();
    std::vector<double> out = series;
    if (n < 3) {
      return out;
    }
    for (size_t i = 0; i < n; ++i) {
      const double neighbors =
          0.5 * (series[(i + n - 1) % n] + series[(i + 1) % n]);
      if (std::fabs(series[i] - neighbors) > threshold_) {
        out[i] = neighbors;
      }
    }
    return out;
  }

 private:
  double threshold_;
  double cost_;
};

class CompositeRule : public TransformationRule {
 public:
  explicit CompositeRule(std::vector<std::unique_ptr<TransformationRule>> rules)
      : rules_(std::move(rules)) {
    SIMQ_CHECK(!rules_.empty());
  }
  std::string name() const override {
    std::string out;
    for (size_t i = 0; i < rules_.size(); ++i) {
      if (i > 0) {
        out += "|";
      }
      out += rules_[i]->name();
    }
    return out;
  }
  double cost() const override {
    double total = 0.0;
    for (const auto& rule : rules_) {
      total += rule->cost();
    }
    return total;
  }
  int64_t OutputLength(int64_t input_length) const override {
    int64_t length = input_length;
    for (const auto& rule : rules_) {
      // Past INT_MAX the chain is rejected anyway; stopping there keeps
      // every product of an int length and an int warp factor in range.
      if (length > std::numeric_limits<int>::max()) {
        break;
      }
      length = rule->OutputLength(length);
    }
    return length;
  }
  std::vector<double> Apply(const std::vector<double>& series) const override {
    std::vector<double> out = series;
    for (const auto& rule : rules_) {
      out = rule->Apply(out);
    }
    return out;
  }
  std::optional<Complex> Multiplier(int f, int n) const override {
    // Chain multipliers back to front, reducing the coefficient index
    // modulo each stage's input length (length changes only via warps,
    // which never shrink it, so every stage fits an int when the output
    // does).
    if (OutputLength(n) > std::numeric_limits<int>::max()) {
      return std::nullopt;
    }
    std::vector<int> lengths(rules_.size() + 1);
    lengths[0] = n;
    for (size_t i = 0; i < rules_.size(); ++i) {
      lengths[i + 1] = static_cast<int>(rules_[i]->OutputLength(lengths[i]));
    }
    Complex product(1.0, 0.0);
    int index = f;
    for (size_t i = rules_.size(); i-- > 0;) {
      const std::optional<Complex> m =
          rules_[i]->Multiplier(index, lengths[i]);
      if (!m.has_value()) {
        return std::nullopt;
      }
      product *= *m;
      index %= lengths[i];
    }
    return product;
  }
  bool IsNormalFormInvariant() const override {
    for (const auto& rule : rules_) {
      if (!rule->IsNormalFormInvariant()) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<std::unique_ptr<TransformationRule>> rules_;
};

}  // namespace

std::optional<LinearTransform> TransformationRule::IndexTransform(
    int n, int k) const {
  SIMQ_CHECK_GT(k, 0);
  if (k >= n) {
    return std::nullopt;
  }
  std::vector<Complex> stretch(static_cast<size_t>(k));
  for (int c = 0; c < k; ++c) {
    const std::optional<Complex> m = Multiplier(c + 1, n);
    if (!m.has_value()) {
      return std::nullopt;
    }
    stretch[static_cast<size_t>(c)] = *m;
  }
  return LinearTransform(
      std::move(stretch),
      std::vector<Complex>(static_cast<size_t>(k), Complex(0.0, 0.0)));
}

std::unique_ptr<TransformationRule> MakeIdentityRule(double cost) {
  return std::make_unique<IdentityRule>(cost);
}

std::unique_ptr<TransformationRule> MakeMovingAverageRule(int window,
                                                          double cost) {
  SIMQ_CHECK_GT(window, 0);
  std::ostringstream name;
  name << "mavg(" << window << ")";
  return std::make_unique<WeightedMovingAverageRule>(
      std::vector<double>(static_cast<size_t>(window),
                          1.0 / static_cast<double>(window)),
      name.str(), cost);
}

std::unique_ptr<TransformationRule> MakeWeightedMovingAverageRule(
    std::vector<double> weights, double cost) {
  std::ostringstream name;
  name << "wmavg(";
  for (size_t i = 0; i < weights.size(); ++i) {
    name << (i > 0 ? "," : "") << FormatRuleArg(weights[i]);
  }
  name << ")";
  return std::make_unique<WeightedMovingAverageRule>(std::move(weights),
                                                     name.str(), cost);
}

std::unique_ptr<TransformationRule> MakeReverseRule(double cost) {
  return std::make_unique<ReverseRule>(cost);
}

std::unique_ptr<TransformationRule> MakeTimeWarpRule(int warp_factor,
                                                     double cost) {
  return std::make_unique<TimeWarpRule>(warp_factor, cost);
}

std::unique_ptr<TransformationRule> MakeShiftRule(double amount, double cost) {
  return std::make_unique<ShiftRule>(amount, cost);
}

std::unique_ptr<TransformationRule> MakeScaleRule(double factor, double cost) {
  return std::make_unique<ScaleRule>(factor, cost);
}

std::unique_ptr<TransformationRule> MakeDifferenceRule(double cost) {
  return std::make_unique<DifferenceRule>(cost);
}

std::unique_ptr<TransformationRule> MakeExponentialSmoothingRule(
    double alpha, double cost) {
  SIMQ_CHECK(alpha > 0.0 && alpha <= 1.0);
  // Truncate the geometric tail once the residual weight is negligible;
  // weights are normalized to sum to 1 so the rule preserves the mean.
  std::vector<double> weights;
  double weight = alpha;
  double total = 0.0;
  while (weight > 1e-12 * alpha && weights.size() < 512) {
    weights.push_back(weight);
    total += weight;
    weight *= (1.0 - alpha);
  }
  for (double& w : weights) {
    w /= total;
  }
  std::ostringstream name;
  name << "ewma(" << FormatRuleArg(alpha) << ")";
  return std::make_unique<WeightedMovingAverageRule>(std::move(weights),
                                                     name.str(), cost);
}

std::unique_ptr<TransformationRule> MakeDespikeRule(double spike_threshold,
                                                    double cost) {
  return std::make_unique<DespikeRule>(spike_threshold, cost);
}

std::unique_ptr<TransformationRule> MakeCompositeRule(
    std::vector<std::unique_ptr<TransformationRule>> rules) {
  return std::make_unique<CompositeRule>(std::move(rules));
}

std::optional<int> PositiveIntegerArg(double value, int limit) {
  if (!(value >= 1.0 && value <= static_cast<double>(limit) &&
        value == std::floor(value))) {
    return std::nullopt;
  }
  return static_cast<int>(value);
}

namespace {

// MakeRuleByName before its finiteness check: the arity and each rule's
// own argument rules.
Result<std::unique_ptr<TransformationRule>> MakeRuleFromArgs(
    const std::string& name, const std::vector<double>& args) {
  auto arg_count_error = [&](const char* expected) {
    std::ostringstream out;
    out << "rule '" << name << "' expects " << expected;
    return Status::InvalidArgument(out.str());
  };
  const double cost = args.size() >= 2 ? args.back() : 0.0;

  if (name == "identity") {
    if (args.size() > 1) {
      return arg_count_error("at most one argument (cost)");
    }
    return MakeIdentityRule(args.empty() ? 0.0 : args[0]);
  }
  if (name == "reverse") {
    if (args.size() > 1) {
      return arg_count_error("at most one argument (cost)");
    }
    return MakeReverseRule(args.empty() ? 0.0 : args[0]);
  }
  if (name == "mavg") {
    if (args.empty() || args.size() > 2) {
      return arg_count_error("window [, cost]");
    }
    const std::optional<int> window =
        PositiveIntegerArg(args[0], kMaxRuleIntegerArg);
    if (!window.has_value()) {
      return Status::InvalidArgument(
          "mavg window must be a positive integer (at most " +
          std::to_string(kMaxRuleIntegerArg) + ")");
    }
    return MakeMovingAverageRule(*window, args.size() == 2 ? cost : 0.0);
  }
  if (name == "warp") {
    if (args.empty() || args.size() > 2) {
      return arg_count_error("factor [, cost]");
    }
    const std::optional<int> factor =
        PositiveIntegerArg(args[0], kMaxRuleIntegerArg);
    if (!factor.has_value()) {
      return Status::InvalidArgument(
          "warp factor must be a positive integer (at most " +
          std::to_string(kMaxRuleIntegerArg) + ")");
    }
    return MakeTimeWarpRule(*factor, args.size() == 2 ? cost : 0.0);
  }
  if (name == "shift") {
    if (args.empty() || args.size() > 2) {
      return arg_count_error("amount [, cost]");
    }
    return MakeShiftRule(args[0], args.size() == 2 ? cost : 0.0);
  }
  if (name == "scale") {
    if (args.empty() || args.size() > 2) {
      return arg_count_error("factor [, cost]");
    }
    return MakeScaleRule(args[0], args.size() == 2 ? cost : 0.0);
  }
  if (name == "despike") {
    if (args.empty() || args.size() > 2) {
      return arg_count_error("threshold [, cost]");
    }
    if (!(args[0] >= 0.0)) {
      return Status::InvalidArgument("despike threshold must be nonnegative");
    }
    return MakeDespikeRule(args[0], args.size() == 2 ? cost : 0.0);
  }
  if (name == "diff") {
    if (args.size() > 1) {
      return arg_count_error("at most one argument (cost)");
    }
    return MakeDifferenceRule(args.empty() ? 0.0 : args[0]);
  }
  if (name == "ewma") {
    if (args.empty() || args.size() > 2) {
      return arg_count_error("alpha [, cost]");
    }
    if (!(args[0] > 0.0 && args[0] <= 1.0)) {
      return Status::InvalidArgument("ewma alpha must be in (0, 1]");
    }
    return MakeExponentialSmoothingRule(args[0], args.size() == 2 ? cost : 0.0);
  }
  return Status::InvalidArgument("unknown transformation rule: " + name);
}

}  // namespace

Result<std::unique_ptr<TransformationRule>> MakeRuleByName(
    const std::string& name, const std::vector<double>& args) {
  Result<std::unique_ptr<TransformationRule>> rule =
      MakeRuleFromArgs(name, args);
  // Checked after the rule's own argument rules, whose messages are more
  // specific. A non-finite amount, factor or cost would make a rule whose
  // name does not re-parse (shift(1e999) is named shift(inf)) and whose
  // output no index or filter bound can contain.
  if (rule.ok() && std::any_of(args.begin(), args.end(), [](double arg) {
        return !std::isfinite(arg);
      })) {
    return Status::InvalidArgument("rule '" + name +
                                   "' arguments must be finite");
  }
  return rule;
}

}  // namespace simq
