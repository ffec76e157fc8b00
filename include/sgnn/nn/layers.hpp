#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sgnn/nn/module.hpp"
#include "sgnn/tensor/ops.hpp"

namespace sgnn {

/// Fully-connected layer y = act(x W + b), one fused op (linear_act).
class Linear : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
         bool bias = true);

  Tensor forward(const Tensor& x,
                 Activation activation = Activation::kNone) const;

  std::int64_t in_features() const { return weight_.dim(0); }
  std::int64_t out_features() const { return weight_.dim(1); }

 private:
  Tensor weight_;  ///< (in, out)
  Tensor bias_;    ///< (1, out); undefined when bias is disabled
};

/// Stack of Linear layers with a hidden activation; optionally activated
/// output. This is the phi_e / phi_x / phi_h building block of EGNN.
class MLP : public Module {
 public:
  /// `dims` = {in, hidden..., out}; requires at least in and out.
  MLP(const std::vector<std::int64_t>& dims, Rng& rng,
      Activation hidden_activation = Activation::kSiLU,
      Activation output_activation = Activation::kNone);

  Tensor forward(const Tensor& x) const;

 private:
  // deque-like stability not needed: layers are stored indirectly so the
  // registered child pointers stay valid if the MLP itself is moved.
  std::vector<std::unique_ptr<Linear>> layers_;
  Activation hidden_activation_;
  Activation output_activation_;
};

/// Lookup table mapping atomic numbers to learned feature vectors — the
/// species featurization of the EGNN input layer.
class Embedding : public Module {
 public:
  Embedding(std::int64_t num_entries, std::int64_t dim, Rng& rng);

  /// Rows of the table selected by `ids`; differentiable w.r.t. the table.
  Tensor forward(const std::vector<std::int64_t>& ids) const;
  Tensor forward(const std::vector<int>& ids) const;

 private:
  Tensor table_;  ///< (num_entries, dim)
};

}  // namespace sgnn
