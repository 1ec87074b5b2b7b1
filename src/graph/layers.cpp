#include "graph/layers.hpp"

#include <cassert>
#include <cstring>

#include "nn/activation.hpp"
#include "nn/concat.hpp"
#include "nn/dropout.hpp"
#include "nn/eltwise.hpp"
#include "nn/fc.hpp"
#include "nn/softmax.hpp"

namespace sn::graph {

namespace {
/// Mixes a stable per-layer, per-iteration dropout seed.
uint64_t mix_seed(uint64_t base, int layer_id, uint64_t iter) {
  uint64_t z = base ^ (0x9E3779B97F4A7C15ull * static_cast<uint64_t>(layer_id + 1));
  z ^= 0xBF58476D1CE4E5B9ull * (iter + 1);
  z = (z ^ (z >> 30)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

// ---------------------------------------------------------------- DataLayer

void DataLayer::forward(ExecContext& ctx) {
  if (!ctx.real) return;
  float* y = ctx.buf(output());
  if (ctx.input_data) {
    std::memcpy(y, ctx.input_data, output()->bytes());
  }
}

// ---------------------------------------------------------------- ConvLayer

void ConvLayer::infer_shape() {
  const tensor::Shape& in = in_shape();
  desc_ = nn::ConvDesc{};
  desc_.n = static_cast<int>(in.n);
  desc_.c = static_cast<int>(in.c);
  desc_.h = static_cast<int>(in.h);
  desc_.w = static_cast<int>(in.w);
  desc_.k = k_;
  desc_.kh = kh_;
  desc_.kw = kw_;
  desc_.stride_h = stride_;
  desc_.stride_w = stride_;
  desc_.pad_h = pad_h_;
  desc_.pad_w = pad_w_;
  desc_.has_bias = has_bias_;
  out_shape_ = tensor::Shape{in.n, k_, desc_.out_h(), desc_.out_w()};
}

void ConvLayer::create_tensors(tensor::TensorRegistry& reg) {
  Layer::create_tensors(reg);
  tensor::Shape wshape{k_, static_cast<int64_t>(desc_.c), kh_, kw_};
  params_.push_back(reg.create(name_ + ":W", wshape, tensor::TensorKind::kParam));
  param_grads_.push_back(reg.create(name_ + ":dW", wshape, tensor::TensorKind::kParamGrad));
  if (has_bias_) {
    tensor::Shape bshape{1, k_, 1, 1};
    params_.push_back(reg.create(name_ + ":b", bshape, tensor::TensorKind::kParam));
    param_grads_.push_back(reg.create(name_ + ":db", bshape, tensor::TensorKind::kParamGrad));
  }
}

void ConvLayer::forward(ExecContext& ctx) {
  if (!ctx.real) return;
  const float* x = ctx.buf(in_tensor());
  const float* w = ctx.buf(params_[0]);
  const float* b = has_bias_ ? ctx.buf(params_[1]) : nullptr;
  float* y = ctx.buf(output());
  assert(ctx.workspace_bytes >= nn::conv_workspace_bytes(desc_, ctx.conv_algo, nn::ConvPass::kForward));
  nn::conv_forward(desc_, ctx.conv_algo, x, w, b, y, ctx.workspace);
}

void ConvLayer::backward(ExecContext& ctx) {
  if (!ctx.real) return;
  const float* x = ctx.buf(in_tensor());
  const float* w = ctx.buf(params_[0]);
  const float* dy = ctx.buf(output_grad());
  if (tensor::Tensor* dxt = prevs_[0]->output_grad()) {
    nn::conv_backward_data(desc_, ctx.conv_algo, w, dy, ctx.buf(dxt), ctx.workspace);
  }
  float* dw = ctx.buf(param_grads_[0]);
  float* db = has_bias_ ? ctx.buf(param_grads_[1]) : nullptr;
  nn::conv_backward_filter(desc_, ctx.conv_algo, x, dy, dw, db, ctx.workspace);
}

std::vector<tensor::Tensor*> ConvLayer::backward_uses() const {
  std::vector<tensor::Tensor*> uses{in_tensor(), params_[0], output_grad_};
  return uses;
}

uint64_t ConvLayer::forward_bytes() const {
  return in_tensor()->bytes() + output()->bytes() + params_[0]->bytes();
}

uint64_t ConvLayer::workspace_bytes(nn::ConvAlgo algo, bool forward) const {
  if (forward) return nn::conv_workspace_bytes(desc_, algo, nn::ConvPass::kForward);
  uint64_t bd = nn::conv_workspace_bytes(desc_, algo, nn::ConvPass::kBackwardData);
  uint64_t bf = nn::conv_workspace_bytes(desc_, algo, nn::ConvPass::kBackwardFilter);
  return bd > bf ? bd : bf;
}

// ---------------------------------------------------------------- PoolLayer

void PoolLayer::infer_shape() {
  const tensor::Shape& in = in_shape();
  desc_ = nn::PoolDesc{};
  desc_.n = static_cast<int>(in.n);
  desc_.c = static_cast<int>(in.c);
  desc_.h = static_cast<int>(in.h);
  desc_.w = static_cast<int>(in.w);
  desc_.kh = kh_;
  desc_.kw = kw_;
  desc_.stride_h = stride_;
  desc_.stride_w = stride_;
  desc_.pad_h = pad_;
  desc_.pad_w = pad_;
  desc_.max_pool = max_;
  out_shape_ = tensor::Shape{in.n, in.c, desc_.out_h(), desc_.out_w()};
}

void PoolLayer::create_tensors(tensor::TensorRegistry& reg) {
  Layer::create_tensors(reg);
  if (max_) {
    // int32 argmax indices, one per output element (stored as a same-shape
    // 4-byte-per-element aux tensor).
    aux_.push_back(reg.create(name_ + ":argmax", out_shape_, tensor::TensorKind::kAux));
  }
}

void PoolLayer::forward(ExecContext& ctx) {
  if (!ctx.real) return;
  const float* x = ctx.buf(in_tensor());
  float* y = ctx.buf(output());
  int32_t* am = max_ ? reinterpret_cast<int32_t*>(ctx.buf(aux_[0])) : nullptr;
  nn::pool_forward(desc_, x, y, am);
}

void PoolLayer::backward(ExecContext& ctx) {
  if (!ctx.real) return;
  tensor::Tensor* dxt = prevs_[0]->output_grad();
  if (!dxt) return;
  const float* dy = ctx.buf(output_grad());
  const int32_t* am = max_ ? reinterpret_cast<const int32_t*>(ctx.buf(aux_[0])) : nullptr;
  nn::pool_backward(desc_, dy, am, ctx.buf(dxt));
}

std::vector<tensor::Tensor*> PoolLayer::backward_uses() const {
  std::vector<tensor::Tensor*> uses{output_grad_};
  if (max_) uses.push_back(aux_[0]);
  return uses;
}

// ----------------------------------------------------------------- ActLayer

void ActLayer::forward(ExecContext& ctx) {
  if (!ctx.real) return;
  uint64_t n = static_cast<uint64_t>(out_shape_.elems());
  const float* x = ctx.buf(in_tensor());
  float* y = ctx.buf(output());
  switch (kind_) {
    case ActKind::kRelu: nn::relu_forward(n, x, y); break;
    case ActKind::kSigmoid: nn::sigmoid_forward(n, x, y); break;
    case ActKind::kTanh: nn::tanh_forward(n, x, y); break;
  }
}

void ActLayer::backward(ExecContext& ctx) {
  if (!ctx.real) return;
  tensor::Tensor* dxt = prevs_[0]->output_grad();
  if (!dxt) return;
  uint64_t n = static_cast<uint64_t>(out_shape_.elems());
  const float* dy = ctx.buf(output_grad());
  float* dx = ctx.buf(dxt);
  switch (kind_) {
    case ActKind::kRelu: nn::relu_backward(n, ctx.buf(in_tensor()), dy, dx); break;
    case ActKind::kSigmoid: nn::sigmoid_backward(n, ctx.buf(output()), dy, dx); break;
    case ActKind::kTanh: nn::tanh_backward(n, ctx.buf(output()), dy, dx); break;
  }
}

std::vector<tensor::Tensor*> ActLayer::backward_uses() const {
  // ReLU reads its input; sigmoid/tanh read their output (nn/activation.hpp).
  if (kind_ == ActKind::kRelu) return {in_tensor(), output_grad_};
  return {output_, output_grad_};
}

// ----------------------------------------------------------------- LrnLayer

nn::LrnDesc LrnLayer::make_desc() const {
  nn::LrnDesc d;
  d.n = static_cast<int>(out_shape_.n);
  d.c = static_cast<int>(out_shape_.c);
  d.h = static_cast<int>(out_shape_.h);
  d.w = static_cast<int>(out_shape_.w);
  d.size = size_;
  d.alpha = alpha_;
  d.beta = beta_;
  d.k = k_;
  return d;
}

void LrnLayer::create_tensors(tensor::TensorRegistry& reg) {
  Layer::create_tensors(reg);
  aux_.push_back(reg.create(name_ + ":scale", out_shape_, tensor::TensorKind::kAux));
}

void LrnLayer::forward(ExecContext& ctx) {
  if (!ctx.real) return;
  nn::lrn_forward(make_desc(), ctx.buf(in_tensor()), ctx.buf(output()), ctx.buf(aux_[0]));
}

void LrnLayer::backward(ExecContext& ctx) {
  if (!ctx.real) return;
  tensor::Tensor* dxt = prevs_[0]->output_grad();
  if (!dxt) return;
  nn::lrn_backward(make_desc(), ctx.buf(in_tensor()), ctx.buf(output()), ctx.buf(aux_[0]),
                   ctx.buf(output_grad()), ctx.buf(dxt));
}

std::vector<tensor::Tensor*> LrnLayer::backward_uses() const {
  return {in_tensor(), output_, aux_[0], output_grad_};
}

// ------------------------------------------------------------------ BnLayer

nn::BnDesc BnLayer::make_desc() const {
  nn::BnDesc d;
  d.n = static_cast<int>(out_shape_.n);
  d.c = static_cast<int>(out_shape_.c);
  d.h = static_cast<int>(out_shape_.h);
  d.w = static_cast<int>(out_shape_.w);
  d.eps = eps_;
  return d;
}

void BnLayer::create_tensors(tensor::TensorRegistry& reg) {
  Layer::create_tensors(reg);
  tensor::Shape cshape{1, out_shape_.c, 1, 1};
  params_.push_back(reg.create(name_ + ":gamma", cshape, tensor::TensorKind::kParam));
  params_.push_back(reg.create(name_ + ":beta", cshape, tensor::TensorKind::kParam));
  param_grads_.push_back(reg.create(name_ + ":dgamma", cshape, tensor::TensorKind::kParamGrad));
  param_grads_.push_back(reg.create(name_ + ":dbeta", cshape, tensor::TensorKind::kParamGrad));
  aux_.push_back(reg.create(name_ + ":mean", cshape, tensor::TensorKind::kAux));
  aux_.push_back(reg.create(name_ + ":invstd", cshape, tensor::TensorKind::kAux));
}

void BnLayer::forward(ExecContext& ctx) {
  if (!ctx.real) return;
  nn::bn_forward(make_desc(), ctx.buf(in_tensor()), ctx.buf(params_[0]), ctx.buf(params_[1]),
                 ctx.buf(output()), ctx.buf(aux_[0]), ctx.buf(aux_[1]));
}

void BnLayer::backward(ExecContext& ctx) {
  if (!ctx.real) return;
  tensor::Tensor* dxt = prevs_[0]->output_grad();
  float* dx = dxt ? ctx.buf(dxt) : nullptr;
  if (!dx) return;  // BN directly after data is unusual; skip data grad
  nn::bn_backward(make_desc(), ctx.buf(in_tensor()), ctx.buf(params_[0]), ctx.buf(aux_[0]),
                  ctx.buf(aux_[1]), ctx.buf(output_grad()), dx, ctx.buf(param_grads_[0]),
                  ctx.buf(param_grads_[1]));
}

std::vector<tensor::Tensor*> BnLayer::backward_uses() const {
  return {in_tensor(), params_[0], aux_[0], aux_[1], output_grad_};
}

// ------------------------------------------------------------------ FcLayer

void FcLayer::infer_shape() {
  const tensor::Shape& in = in_shape();
  in_features_ = in.c * in.h * in.w;
  out_shape_ = tensor::Shape{in.n, k_, 1, 1};
}

void FcLayer::create_tensors(tensor::TensorRegistry& reg) {
  Layer::create_tensors(reg);
  tensor::Shape wshape{k_, in_features_, 1, 1};
  params_.push_back(reg.create(name_ + ":W", wshape, tensor::TensorKind::kParam));
  param_grads_.push_back(reg.create(name_ + ":dW", wshape, tensor::TensorKind::kParamGrad));
  if (has_bias_) {
    tensor::Shape bshape{1, k_, 1, 1};
    params_.push_back(reg.create(name_ + ":b", bshape, tensor::TensorKind::kParam));
    param_grads_.push_back(reg.create(name_ + ":db", bshape, tensor::TensorKind::kParamGrad));
  }
}

void FcLayer::forward(ExecContext& ctx) {
  if (!ctx.real) return;
  nn::FcDesc f{static_cast<int>(out_shape_.n), static_cast<int>(in_features_), k_, has_bias_};
  nn::fc_forward(f, ctx.buf(in_tensor()), ctx.buf(params_[0]),
                 has_bias_ ? ctx.buf(params_[1]) : nullptr, ctx.buf(output()));
}

void FcLayer::backward(ExecContext& ctx) {
  if (!ctx.real) return;
  nn::FcDesc f{static_cast<int>(out_shape_.n), static_cast<int>(in_features_), k_, has_bias_};
  const float* dy = ctx.buf(output_grad());
  if (tensor::Tensor* dxt = prevs_[0]->output_grad()) {
    nn::fc_backward_data(f, ctx.buf(params_[0]), dy, ctx.buf(dxt));
  }
  nn::fc_backward_filter(f, ctx.buf(in_tensor()), dy, ctx.buf(param_grads_[0]),
                         has_bias_ ? ctx.buf(param_grads_[1]) : nullptr);
}

std::vector<tensor::Tensor*> FcLayer::backward_uses() const {
  return {in_tensor(), params_[0], output_grad_};
}

// ------------------------------------------------------------- DropoutLayer

void DropoutLayer::create_tensors(tensor::TensorRegistry& reg) {
  Layer::create_tensors(reg);
  aux_.push_back(reg.create(name_ + ":mask", out_shape_, tensor::TensorKind::kAux));
}

void DropoutLayer::forward(ExecContext& ctx) {
  if (!ctx.real) return;
  uint64_t seed = mix_seed(ctx.seed, id_, ctx.iter);
  nn::dropout_forward(static_cast<uint64_t>(out_shape_.elems()), ratio_, seed,
                      ctx.buf(in_tensor()), ctx.buf(output()), ctx.buf(aux_[0]));
}

void DropoutLayer::backward(ExecContext& ctx) {
  if (!ctx.real) return;
  tensor::Tensor* dxt = prevs_[0]->output_grad();
  if (!dxt) return;
  nn::dropout_backward(static_cast<uint64_t>(out_shape_.elems()), ctx.buf(aux_[0]),
                       ctx.buf(output_grad()), ctx.buf(dxt));
}

std::vector<tensor::Tensor*> DropoutLayer::backward_uses() const {
  return {aux_[0], output_grad_};
}

// --------------------------------------------------------- SoftmaxLossLayer

void SoftmaxLossLayer::infer_shape() {
  const tensor::Shape& in = in_shape();
  out_shape_ = tensor::Shape{in.n, in.c * in.h * in.w, 1, 1};
}

void SoftmaxLossLayer::forward(ExecContext& ctx) {
  if (!ctx.real) return;
  int n = static_cast<int>(out_shape_.n), c = static_cast<int>(out_shape_.c);
  float* p = ctx.buf(output());
  nn::softmax_forward(n, c, ctx.buf(in_tensor()), p);
  if (ctx.labels && (ctx.loss_out || ctx.loss_sum_out)) {
    double sum = nn::nll_loss_sum(n, c, p, ctx.labels);
    if (ctx.loss_sum_out) *ctx.loss_sum_out = sum;
    if (ctx.loss_out) *ctx.loss_out = sum / (ctx.loss_batch > 0 ? ctx.loss_batch : n);
  }
}

void SoftmaxLossLayer::backward(ExecContext& ctx) {
  if (!ctx.real || !ctx.labels) return;
  tensor::Tensor* dxt = prevs_[0]->output_grad();
  if (!dxt) return;
  int n = static_cast<int>(out_shape_.n), c = static_cast<int>(out_shape_.c);
  nn::softmax_nll_backward(n, c, ctx.buf(output()), ctx.labels, ctx.buf(dxt), ctx.loss_batch);
}

std::vector<tensor::Tensor*> SoftmaxLossLayer::backward_uses() const { return {output_}; }

// --------------------------------------------------------------- EltwiseLayer

void EltwiseLayer::infer_shape() {
  out_shape_ = in_shape();
  for (const Layer* p : prevs_) {
    assert(p->out_shape() == out_shape_ && "eltwise inputs must match");
    (void)p;
  }
}

void EltwiseLayer::forward(ExecContext& ctx) {
  if (!ctx.real) return;
  std::vector<const float*> xs;
  xs.reserve(prevs_.size());
  for (const Layer* p : prevs_) xs.push_back(ctx.buf(p->output()));
  nn::eltwise_sum_forward(static_cast<uint64_t>(out_shape_.elems()), xs, ctx.buf(output()));
}

void EltwiseLayer::backward(ExecContext& ctx) {
  if (!ctx.real) return;
  const float* dy = ctx.buf(output_grad());
  for (Layer* p : prevs_) {
    if (tensor::Tensor* dxt = p->output_grad()) {
      nn::eltwise_sum_backward(static_cast<uint64_t>(out_shape_.elems()), dy, ctx.buf(dxt));
    }
  }
}

std::vector<tensor::Tensor*> EltwiseLayer::backward_uses() const { return {output_grad_}; }

// ---------------------------------------------------------------- ConcatLayer

void ConcatLayer::infer_shape() {
  const tensor::Shape& first = in_shape();
  int64_t total_c = 0;
  for (const Layer* p : prevs_) {
    const tensor::Shape& s = p->out_shape();
    assert(s.n == first.n && s.h == first.h && s.w == first.w && "concat spatial mismatch");
    total_c += s.c;
  }
  out_shape_ = tensor::Shape{first.n, total_c, first.h, first.w};
}

void ConcatLayer::forward(ExecContext& ctx) {
  if (!ctx.real) return;
  nn::ConcatDesc d;
  d.n = static_cast<int>(out_shape_.n);
  d.h = static_cast<int>(out_shape_.h);
  d.w = static_cast<int>(out_shape_.w);
  std::vector<const float*> xs;
  for (const Layer* p : prevs_) {
    d.channels.push_back(static_cast<int>(p->output()->shape().c));
    xs.push_back(ctx.buf(p->output()));
  }
  nn::concat_forward(d, xs, ctx.buf(output()));
}

void ConcatLayer::backward(ExecContext& ctx) {
  if (!ctx.real) return;
  nn::ConcatDesc d;
  d.n = static_cast<int>(out_shape_.n);
  d.h = static_cast<int>(out_shape_.h);
  d.w = static_cast<int>(out_shape_.w);
  for (const Layer* p : prevs_) d.channels.push_back(static_cast<int>(p->output()->shape().c));
  const float* dy = ctx.buf(output_grad());
  for (size_t i = 0; i < prevs_.size(); ++i) {
    if (tensor::Tensor* dxt = prevs_[i]->output_grad()) {
      nn::concat_backward(d, dy, static_cast<int>(i), ctx.buf(dxt));
    }
  }
}

std::vector<tensor::Tensor*> ConcatLayer::backward_uses() const { return {output_grad_}; }

}  // namespace sn::graph
