#include "sgnn/nn/layers.hpp"

#include "sgnn/util/error.hpp"

namespace sgnn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
               bool bias) {
  SGNN_CHECK(in_features > 0 && out_features > 0,
             "Linear dimensions must be positive, got " << in_features << "x"
                                                        << out_features);
  weight_ = glorot_uniform(in_features, out_features, rng);
  register_parameter(weight_);
  if (bias) {
    const ScopedMemCategory scope(MemCategory::kWeight);
    bias_ = Tensor::zeros(Shape{1, out_features});
    bias_.set_requires_grad(true);
    register_parameter(bias_);
  }
}

Tensor Linear::forward(const Tensor& x, Activation activation) const {
  SGNN_CHECK(x.rank() == 2, "Linear expects (batch, features), got "
                                << x.shape().to_string());
  return linear_act(x, weight_, bias_, activation);
}

MLP::MLP(const std::vector<std::int64_t>& dims, Rng& rng,
         Activation hidden_activation, Activation output_activation)
    : hidden_activation_(hidden_activation),
      output_activation_(output_activation) {
  SGNN_CHECK(dims.size() >= 2, "MLP needs at least input and output dims");
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
    register_module(*layers_.back());
  }
}

Tensor MLP::forward(const Tensor& x) const {
  Tensor h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const bool last = (i + 1 == layers_.size());
    h = layers_[i]->forward(
        h, last ? output_activation_ : hidden_activation_);
  }
  return h;
}

Embedding::Embedding(std::int64_t num_entries, std::int64_t dim, Rng& rng) {
  SGNN_CHECK(num_entries > 0 && dim > 0, "Embedding dimensions must be positive");
  const ScopedMemCategory scope(MemCategory::kWeight);
  table_ = Tensor::randn(Shape{num_entries, dim}, rng,
                         real{1} / std::sqrt(static_cast<real>(dim)));
  table_.set_requires_grad(true);
  register_parameter(table_);
}

Tensor Embedding::forward(const std::vector<std::int64_t>& ids) const {
  return index_select_rows(table_, ids);
}

Tensor Embedding::forward(const std::vector<int>& ids) const {
  std::vector<std::int64_t> wide(ids.begin(), ids.end());
  return forward(wide);
}

}  // namespace sgnn
