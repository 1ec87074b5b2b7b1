// Concrete layer types: the eight building blocks the paper lists (§2.1) —
// CONV, POOL, ACT, Softmax, FC, LRN, BN, Dropout — plus DATA and the two
// non-linear join primitives (element-wise sum, channel concat).
#pragma once

#include "graph/layer.hpp"
#include "nn/batchnorm.hpp"
#include "nn/lrn.hpp"
#include "nn/pool.hpp"

namespace sn::graph {

/// Source layer: owns the input batch tensor the runtime fills each
/// iteration. Never receives a gradient — except as a pipeline-stage
/// boundary, where the consumers' backward must accumulate the gradient
/// w.r.t. the stage input so it can be streamed to the upstream stage.
class DataLayer final : public Layer {
 public:
  DataLayer(std::string name, tensor::Shape shape) : Layer(LayerType::kData, std::move(name)) {
    out_shape_ = shape;
  }
  void infer_shape() override {}
  bool needs_output_grad() const override { return input_grad_; }
  void forward(ExecContext& ctx) override;
  void backward(ExecContext&) override {}
  std::vector<tensor::Tensor*> backward_uses() const override { return {}; }
  uint64_t forward_bytes() const override { return 2 * output()->bytes(); }

  /// Must be called before Net::finalize(); graph::extract_stage() sets it
  /// on the synthetic input of every stage after the first.
  void set_input_grad(bool v) { input_grad_ = v; }

 private:
  bool input_grad_ = false;
};

class ConvLayer final : public Layer {
 public:
  ConvLayer(std::string name, int out_channels, int kh, int kw, int stride, int pad_h, int pad_w,
            bool has_bias = true)
      : Layer(LayerType::kConv, std::move(name)),
        k_(out_channels),
        kh_(kh),
        kw_(kw),
        stride_(stride),
        pad_h_(pad_h),
        pad_w_(pad_w),
        has_bias_(has_bias) {}

  /// Square-kernel convenience constructor.
  ConvLayer(std::string name, int out_channels, int k, int stride, int pad, bool has_bias = true)
      : ConvLayer(std::move(name), out_channels, k, k, stride, pad, pad, has_bias) {}

  void infer_shape() override;
  void create_tensors(tensor::TensorRegistry& reg) override;
  void forward(ExecContext& ctx) override;
  void backward(ExecContext& ctx) override;
  std::vector<tensor::Tensor*> backward_uses() const override;

  double forward_flops() const override { return nn::conv_flops(desc_, nn::ConvPass::kForward); }
  uint64_t forward_bytes() const override;
  double compute_efficiency() const override { return 0.45; }  // default algo; runtime refines
  uint64_t workspace_bytes(nn::ConvAlgo algo, bool forward) const override;

  const nn::ConvDesc& desc() const { return desc_; }

 private:
  int k_, kh_, kw_, stride_, pad_h_, pad_w_;
  bool has_bias_;
  nn::ConvDesc desc_;
};

class PoolLayer final : public Layer {
 public:
  PoolLayer(std::string name, int kh, int kw, int stride, int pad, bool max_pool = true)
      : Layer(LayerType::kPool, std::move(name)),
        kh_(kh),
        kw_(kw),
        stride_(stride),
        pad_(pad),
        max_(max_pool) {}

  void infer_shape() override;
  void create_tensors(tensor::TensorRegistry& reg) override;
  void forward(ExecContext& ctx) override;
  void backward(ExecContext& ctx) override;
  std::vector<tensor::Tensor*> backward_uses() const override;

  const nn::PoolDesc& desc() const { return desc_; }

 private:
  int kh_, kw_, stride_, pad_;
  bool max_;
  nn::PoolDesc desc_;
};

enum class ActKind { kRelu, kSigmoid, kTanh };

/// Elementwise activation. ReLU's backward gates on the forward *input*
/// (Caffe convention — see nn/activation.hpp); sigmoid/tanh backwards are
/// functions of the forward *output*. The dependency sets reflect that, so
/// the scheduler keeps exactly the right tensor alive per kind.
class ActLayer final : public Layer {
 public:
  explicit ActLayer(std::string name, ActKind kind = ActKind::kRelu)
      : Layer(LayerType::kAct, std::move(name)), kind_(kind) {}
  void infer_shape() override { out_shape_ = in_shape(); }
  void forward(ExecContext& ctx) override;
  void backward(ExecContext& ctx) override;
  std::vector<tensor::Tensor*> backward_uses() const override;
  ActKind kind() const { return kind_; }

 private:
  ActKind kind_;
};

class LrnLayer final : public Layer {
 public:
  LrnLayer(std::string name, int size = 5, float alpha = 1e-4f, float beta = 0.75f, float k = 2.0f)
      : Layer(LayerType::kLrn, std::move(name)), size_(size), alpha_(alpha), beta_(beta), k_(k) {}

  void infer_shape() override { out_shape_ = in_shape(); }
  void create_tensors(tensor::TensorRegistry& reg) override;
  void forward(ExecContext& ctx) override;
  void backward(ExecContext& ctx) override;
  std::vector<tensor::Tensor*> backward_uses() const override;
  uint64_t forward_bytes() const override { return 4 * output()->bytes(); }
  int size() const { return size_; }
  float alpha() const { return alpha_; }
  float beta() const { return beta_; }
  float k() const { return k_; }

 private:
  nn::LrnDesc make_desc() const;
  int size_;
  float alpha_, beta_, k_;
};

class BnLayer final : public Layer {
 public:
  explicit BnLayer(std::string name, float eps = 1e-5f)
      : Layer(LayerType::kBn, std::move(name)), eps_(eps) {}

  void infer_shape() override { out_shape_ = in_shape(); }
  void create_tensors(tensor::TensorRegistry& reg) override;
  void forward(ExecContext& ctx) override;
  void backward(ExecContext& ctx) override;
  std::vector<tensor::Tensor*> backward_uses() const override;
  uint64_t forward_bytes() const override { return 4 * output()->bytes(); }
  float eps() const { return eps_; }

 private:
  nn::BnDesc make_desc() const;
  float eps_;
};

class FcLayer final : public Layer {
 public:
  FcLayer(std::string name, int out_features, bool has_bias = true)
      : Layer(LayerType::kFc, std::move(name)), k_(out_features), has_bias_(has_bias) {}

  void infer_shape() override;
  void create_tensors(tensor::TensorRegistry& reg) override;
  void forward(ExecContext& ctx) override;
  void backward(ExecContext& ctx) override;
  std::vector<tensor::Tensor*> backward_uses() const override;

  double forward_flops() const override {
    return 2.0 * out_shape_.n * in_features_ * k_;
  }
  double compute_efficiency() const override { return 0.55; }
  int out_features() const { return k_; }
  bool has_bias() const { return has_bias_; }

 private:
  int k_;
  bool has_bias_;
  int64_t in_features_ = 0;
};

class DropoutLayer final : public Layer {
 public:
  DropoutLayer(std::string name, float ratio = 0.5f)
      : Layer(LayerType::kDropout, std::move(name)), ratio_(ratio) {}

  void infer_shape() override { out_shape_ = in_shape(); }
  void create_tensors(tensor::TensorRegistry& reg) override;
  void forward(ExecContext& ctx) override;
  void backward(ExecContext& ctx) override;
  std::vector<tensor::Tensor*> backward_uses() const override;
  float ratio() const { return ratio_; }

 private:
  float ratio_;
};

/// Fused softmax + mean NLL loss. The network sink: no output gradient; its
/// backward seeds the whole gradient flow from (p, labels).
class SoftmaxLossLayer final : public Layer {
 public:
  explicit SoftmaxLossLayer(std::string name) : Layer(LayerType::kSoftmax, std::move(name)) {}

  void infer_shape() override;
  bool needs_output_grad() const override { return false; }
  void forward(ExecContext& ctx) override;
  void backward(ExecContext& ctx) override;
  std::vector<tensor::Tensor*> backward_uses() const override;
};

/// Element-wise sum join (ResNet shortcut).
class EltwiseLayer final : public Layer {
 public:
  explicit EltwiseLayer(std::string name) : Layer(LayerType::kEltwise, std::move(name)) {}
  void infer_shape() override;
  void forward(ExecContext& ctx) override;
  void backward(ExecContext& ctx) override;
  std::vector<tensor::Tensor*> backward_uses() const override;
};

/// Channel-wise concat join (Inception / DenseNet fan-in).
class ConcatLayer final : public Layer {
 public:
  explicit ConcatLayer(std::string name) : Layer(LayerType::kConcat, std::move(name)) {}
  void infer_shape() override;
  void forward(ExecContext& ctx) override;
  void backward(ExecContext& ctx) override;
  std::vector<tensor::Tensor*> backward_uses() const override;
};

}  // namespace sn::graph
