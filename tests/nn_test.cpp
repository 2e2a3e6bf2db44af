#include "tensor/nn.h"

#include <gtest/gtest.h>

#include <cmath>

#include "test_util.h"

namespace chainnet::tensor {
namespace {

using chainnet::support::Rng;
using chainnet::testing::expect_gradient_matches;

TEST(Glorot, RangeMatchesFanInFanOut) {
  Rng rng(1);
  std::vector<double> w(10000);
  glorot_uniform(w, 30, 70, rng);
  const double bound = std::sqrt(6.0 / 100.0);
  double max_abs = 0.0, sum = 0.0;
  for (double v : w) {
    max_abs = std::max(max_abs, std::abs(v));
    sum += v;
  }
  EXPECT_LE(max_abs, bound);
  EXPECT_GT(max_abs, 0.9 * bound);  // the bound is approached
  EXPECT_NEAR(sum / static_cast<double>(w.size()), 0.0, 0.01);
}

TEST(Linear, ShapesAndValues) {
  Rng rng(2);
  Linear lin(3, 2, rng);
  EXPECT_EQ(lin.in_features(), 3u);
  EXPECT_EQ(lin.out_features(), 2u);
  auto y = lin.forward(Var::vector({1.0, -1.0, 0.5}));
  EXPECT_EQ(y.size(), 2u);
  EXPECT_THROW(lin.forward(Var::vector({1.0})), std::invalid_argument);
}

TEST(Linear, ParameterRegistry) {
  Rng rng(3);
  Linear lin(4, 5, rng, "fc");
  const auto params = lin.parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0]->name, "fc.w");
  EXPECT_EQ(params[1]->name, "fc.b");
  EXPECT_EQ(lin.parameter_count(), 4u * 5u + 5u);
}

TEST(Linear, GradCheck) {
  Rng rng(4);
  Linear lin(3, 2, rng);
  auto x = Var::vector({0.3, -0.8, 1.2});
  auto build = [&] {
    auto y = lin.forward(x);
    return mean(mul(y, y)).item();
  };
  {
    auto y = lin.forward(x);
    mean(mul(y, y)).backward();
  }
  for (Parameter* p : lin.parameters()) {
    expect_gradient_matches(p->var, build);
  }
}

TEST(Module, ZeroGradClearsGradients) {
  Rng rng(5);
  Linear lin(2, 2, rng);
  auto y = lin.forward(Var::vector({1.0, 1.0}));
  mean(mul(y, y)).backward();
  bool any_nonzero = false;
  for (Parameter* p : lin.parameters()) {
    for (double g : p->var.grad()) any_nonzero |= g != 0.0;
  }
  EXPECT_TRUE(any_nonzero);
  lin.zero_grad();
  for (Parameter* p : lin.parameters()) {
    for (double g : p->var.grad()) EXPECT_DOUBLE_EQ(g, 0.0);
  }
}

TEST(Mlp, OutputShapeAndActivation) {
  Rng rng(6);
  Mlp mlp({4, 8, 1}, Activation::kRelu, Activation::kSigmoid, rng);
  auto y = mlp.forward(Var::vector({1.0, -2.0, 0.5, 3.0}));
  EXPECT_EQ(y.size(), 1u);
  EXPECT_GT(y.item(), 0.0);
  EXPECT_LT(y.item(), 1.0);
}

TEST(Mlp, RejectsTooFewLayers) {
  Rng rng(7);
  EXPECT_THROW(Mlp({4}, Activation::kRelu, Activation::kNone, rng),
               std::invalid_argument);
}

TEST(Mlp, GradCheckThroughTwoLayers) {
  Rng rng(8);
  Mlp mlp({3, 4, 2}, Activation::kTanh, Activation::kNone, rng);
  auto x = Var::vector({0.3, -0.8, 1.2});
  auto build = [&] {
    auto y = mlp.forward(x);
    return mean(mul(y, y)).item();
  };
  {
    auto y = mlp.forward(x);
    mean(mul(y, y)).backward();
  }
  for (Parameter* p : mlp.parameters()) {
    expect_gradient_matches(p->var, build, 1e-6, 1e-4);
  }
}

TEST(ApplyActivation, AllVariants) {
  auto x = Var::vector({-1.0, 2.0});
  EXPECT_DOUBLE_EQ(apply_activation(x, Activation::kNone).value()[0], -1.0);
  EXPECT_DOUBLE_EQ(apply_activation(x, Activation::kRelu).value()[0], 0.0);
  EXPECT_NEAR(apply_activation(x, Activation::kTanh).value()[1],
              std::tanh(2.0), 1e-12);
  EXPECT_NEAR(apply_activation(x, Activation::kSigmoid).value()[1],
              1.0 / (1.0 + std::exp(-2.0)), 1e-12);
  EXPECT_NEAR(apply_activation(x, Activation::kLeakyRelu).value()[0], -0.01,
              1e-12);
  EXPECT_NEAR(apply_activation(x, Activation::kSoftplus).value()[1],
              std::log1p(std::exp(2.0)), 1e-9);
}

TEST(GruCell, StateSizePreserved) {
  Rng rng(9);
  GruCell gru(4, 3, rng);
  EXPECT_EQ(gru.input_size(), 4u);
  EXPECT_EQ(gru.hidden_size(), 3u);
  auto h = Var::vector({0.1, -0.2, 0.3});
  auto x = Var::vector({1.0, 0.0, -1.0, 0.5});
  auto h2 = gru.forward(h, x);
  EXPECT_EQ(h2.size(), 3u);
  EXPECT_THROW(gru.forward(x, h), std::invalid_argument);
}

TEST(GruCell, InterpolatesBetweenCandidateAndState) {
  // GRU output is a convex combination of h and the tanh candidate, so it
  // stays within [-1, 1] when h does.
  Rng rng(10);
  GruCell gru(2, 3, rng);
  auto h = Var::vector({0.5, -0.5, 0.0});
  auto x = Var::vector({10.0, -10.0});
  auto h2 = gru.forward(h, x);
  for (double v : h2.value()) {
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(GruCell, ParameterCount) {
  Rng rng(11);
  GruCell gru(4, 3, rng);
  // 3 input mats (3x4), 3 hidden mats (3x3), 6 biases (3).
  EXPECT_EQ(gru.parameter_count(), 3u * 12u + 3u * 9u + 6u * 3u);
}

TEST(GruCell, GradCheck) {
  Rng rng(12);
  GruCell gru(2, 2, rng);
  auto h = Var::vector({0.3, -0.4});
  auto x = Var::vector({0.8, -1.1});
  auto build = [&] {
    auto h2 = gru.forward(h, x);
    return mean(mul(h2, h2)).item();
  };
  {
    auto h2 = gru.forward(h, x);
    mean(mul(h2, h2)).backward();
  }
  for (Parameter* p : gru.parameters()) {
    expect_gradient_matches(p->var, build, 1e-6, 1e-4);
  }
}

TEST(Linear, ForwardValuesMatchesAutodiff) {
  Rng rng(31);
  Linear lin(5, 3, rng);
  const std::vector<double> x = {0.4, -1.2, 0.0, 2.2, -0.3};
  const auto slow = lin.forward(Var::vector(x));
  std::vector<double> fast(3);
  lin.forward_values(x, fast);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(slow.value()[i], fast[i]);
  }
  std::vector<double> wrong(2);
  EXPECT_THROW(lin.forward_values(x, wrong), std::invalid_argument);
}

TEST(Mlp, ForwardValuesMatchesAutodiff) {
  Rng rng(32);
  for (const auto out_act : {Activation::kSigmoid, Activation::kNone}) {
    Mlp mlp({4, 6, 2}, Activation::kRelu, out_act, rng);
    const std::vector<double> x = {0.4, -1.2, 0.7, 2.2};
    const auto slow = mlp.forward(Var::vector(x));
    std::vector<double> fast(2);
    mlp.forward_values(x, fast);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_NEAR(slow.value()[i], fast[i], 1e-15);
    }
  }
}

TEST(GruCell, ForwardValuesMatchesAutodiff) {
  Rng rng(33);
  GruCell gru(4, 3, rng);
  const std::vector<double> h = {0.2, -0.5, 0.9};
  const std::vector<double> x = {1.0, -2.0, 0.3, 0.8};
  const auto slow = gru.forward(Var::vector(h), Var::vector(x));
  std::vector<double> fast(3);
  GruCell::Scratch scratch;
  gru.forward_values_reference(h, x, fast, scratch);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(slow.value()[i], fast[i], 1e-15);
  }
  std::vector<double> wrong(2);
  EXPECT_THROW(gru.forward_values_reference(h, x, wrong, scratch),
               std::invalid_argument);
}

TEST(ApplyActivationValues, MatchesVarPath) {
  for (const auto act :
       {Activation::kNone, Activation::kRelu, Activation::kTanh,
        Activation::kSigmoid, Activation::kLeakyRelu,
        Activation::kSoftplus}) {
    const std::vector<double> x = {-2.0, -0.1, 0.0, 0.1, 3.0};
    const auto slow = apply_activation(Var::vector(x), act);
    std::vector<double> fast = x;
    apply_activation_values(fast, act);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(slow.value()[i], fast[i], 1e-15);
    }
  }
}

TEST(GruCell, RecurrentGradCheck) {
  // Unrolled twice — checks gradient flow through the recurrence.
  Rng rng(13);
  GruCell gru(2, 2, rng);
  auto h0 = Var::vector({0.0, 0.0});
  auto x1 = Var::vector({0.5, -0.2});
  auto x2 = Var::vector({-0.7, 0.9});
  auto build = [&] {
    auto h1 = gru.forward(h0, x1);
    auto h2 = gru.forward(h1, x2);
    return mean(mul(h2, h2)).item();
  };
  {
    auto h1 = gru.forward(h0, x1);
    auto h2 = gru.forward(h1, x2);
    mean(mul(h2, h2)).backward();
  }
  for (Parameter* p : gru.parameters()) {
    expect_gradient_matches(p->var, build, 1e-6, 1e-4);
  }
}

}  // namespace
}  // namespace chainnet::tensor
