// Layer: the computation unit of the network graph (paper §3.1).
//
// cuDNN enforces layer-wise computation, so the runtime schedules memory at
// tensor granularity but executes at layer granularity. Each layer:
//   * infers its output shape from its predecessors,
//   * registers its tensors (output, output-grad, params, aux) with the
//     network's TensorRegistry,
//   * executes real forward/backward arithmetic through the nn kernels, and
//   * reports its dependency sets (uses/defs per pass) — the raw material of
//     liveness analysis — plus the FLOP/byte quantities the cost model needs.
//
// Data-gradient kernels ACCUMULATE (see nn/), so fan-out joins sum naturally;
// the runtime zeroes each gradient tensor at its first backward definition.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "nn/conv.hpp"
#include "tensor/tensor.hpp"

namespace sn::graph {

enum class LayerType {
  kData,
  kConv,
  kPool,
  kAct,
  kLrn,
  kBn,
  kFc,
  kDropout,
  kSoftmax,
  kEltwise,
  kConcat,
};

const char* layer_type_name(LayerType t);

/// Everything a layer needs to execute one pass. The runtime resolves tensor
/// device buffers through `buf`; in simulation-only runs `real` is false and
/// kernels are skipped (only time/memory effects are modeled).
struct ExecContext {
  /// Resolve a tensor's device buffer. Must return a valid pointer for every
  /// tensor in the executing pass's uses/defs when `real` is true.
  std::function<float*(const tensor::Tensor*)> buf;

  /// Convolution scratch; sized by the runtime's workspace allocator.
  float* workspace = nullptr;
  uint64_t workspace_bytes = 0;

  /// Per-layer algorithm choice the workspace allocator made for this pass.
  nn::ConvAlgo conv_algo = nn::ConvAlgo::kIm2colGemm;

  /// Training-iteration index; dropout seeds derive from it so recomputation
  /// replays bit-identical masks.
  uint64_t iter = 0;
  uint64_t seed = 0x5EEDBA5Eull;

  /// Current mini-batch (Data layer) and labels (Softmax loss).
  const float* input_data = nullptr;
  const int32_t* labels = nullptr;
  double* loss_out = nullptr;

  /// Raw (unnormalized) NLL sum over the local batch — data-parallel replicas
  /// combine these pairwise so the global loss matches a single-device run
  /// bit for bit (normalized means cannot be recombined exactly).
  double* loss_sum_out = nullptr;

  /// Batch the loss is averaged over; 0 means the local batch. Data-parallel
  /// training sets this to the GLOBAL batch so per-sample gradients are
  /// independent of how the batch is sharded across devices.
  int loss_batch = 0;

  bool real = true;
};

class Layer {
 public:
  Layer(LayerType type, std::string name) : type_(type), name_(std::move(name)) {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  int id() const { return id_; }
  LayerType type() const { return type_; }
  const std::string& name() const { return name_; }

  const std::vector<Layer*>& prevs() const { return prevs_; }
  const std::vector<Layer*>& nexts() const { return nexts_; }
  const tensor::Shape& out_shape() const { return out_shape_; }

  tensor::Tensor* output() const { return output_; }
  tensor::Tensor* output_grad() const { return output_grad_; }
  const std::vector<tensor::Tensor*>& params() const { return params_; }
  const std::vector<tensor::Tensor*>& param_grads() const { return param_grads_; }
  const std::vector<tensor::Tensor*>& aux() const { return aux_; }

  /// Compute out_shape_ from predecessors (already shaped).
  virtual void infer_shape() = 0;

  /// Register output/grad plus subclass params and aux with the registry.
  /// Base implementation creates output and (when needs_output_grad())
  /// output-grad; subclasses extend.
  virtual void create_tensors(tensor::TensorRegistry& reg);

  /// Loss and data layers receive no upstream gradient.
  virtual bool needs_output_grad() const { return true; }

  virtual void forward(ExecContext& ctx) = 0;
  virtual void backward(ExecContext& ctx) = 0;

  // --- dependency sets (liveness input) --------------------------------

  /// Tensors read by forward: predecessor outputs + own params by default.
  virtual std::vector<tensor::Tensor*> forward_uses() const;
  /// Tensors written by forward: own output + aux by default.
  virtual std::vector<tensor::Tensor*> forward_defs() const;
  /// Tensors read by backward (per layer type; must include output_grad when
  /// it exists).
  virtual std::vector<tensor::Tensor*> backward_uses() const = 0;
  /// Tensors written by backward: existing predecessor grads + param grads.
  virtual std::vector<tensor::Tensor*> backward_defs() const;

  // --- cost-model quantities --------------------------------------------

  /// FLOPs of one forward execution (0 for bandwidth-bound layers).
  virtual double forward_flops() const { return 0.0; }
  virtual double backward_flops() const { return 2.0 * forward_flops(); }

  /// Bytes streamed by forward / backward (drives bandwidth-bound timing).
  virtual uint64_t forward_bytes() const;
  virtual uint64_t backward_bytes() const { return 2 * forward_bytes(); }

  /// Sustained fraction of peak FLOP/s; 0 marks a bandwidth-bound layer.
  /// CONV layers are costed per-algorithm by the runtime instead.
  virtual double compute_efficiency() const { return 0.0; }

  /// Convolution scratch demand for this pass (0 for non-conv layers).
  virtual uint64_t workspace_bytes(nn::ConvAlgo, bool /*forward*/) const { return 0; }

  /// l_i: total bytes of all tensors this layer's computation stashes —
  /// its output, output-grad, aux, params and param grads PLUS its inputs
  /// and the input gradients it writes (cuDNN needs all of them resident to
  /// run the layer). max_i(l_i) is the layer-wise lower bound on peak
  /// memory the paper's cost-aware recomputation targets.
  uint64_t layer_tensor_bytes() const;

 protected:
  friend class Net;

  /// First predecessor's output buffer (the common single-input case).
  /// Only valid after create_tensors(); shape inference must use in_shape().
  tensor::Tensor* in_tensor() const { return prevs_.at(0)->output(); }

  /// First predecessor's inferred shape (valid during infer_shape()).
  const tensor::Shape& in_shape() const { return prevs_.at(0)->out_shape(); }

  int id_ = -1;
  LayerType type_;
  std::string name_;
  std::vector<Layer*> prevs_;
  std::vector<Layer*> nexts_;
  tensor::Shape out_shape_;
  tensor::Tensor* output_ = nullptr;
  tensor::Tensor* output_grad_ = nullptr;
  std::vector<tensor::Tensor*> params_;
  std::vector<tensor::Tensor*> param_grads_;
  std::vector<tensor::Tensor*> aux_;
};

}  // namespace sn::graph
