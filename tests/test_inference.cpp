// Activation-kind dependency coverage: sigmoid/tanh keep their outputs alive
// into backward while ReLU keeps its input — the scheduler must honour both
// shapes, and training through them must not depend on memory pressure.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/runtime.hpp"
#include "train/trainer.hpp"

namespace {

using namespace sn;
namespace tensor = sn::tensor;

core::RuntimeOptions real_opts(uint64_t cap) {
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = true;
  o.device_capacity = cap;
  o.host_capacity = 64ull << 20;
  return o;
}

TEST(ActKinds, DependencyShapesDiffer) {
  graph::Net net;
  auto* d = net.data("d", tensor::Shape{2, 3, 8, 8});
  auto* c = net.conv("c", d, 4, 3, 1, 1);
  auto* r = net.relu("r", c);
  auto* s = net.sigmoid("s", r);
  auto* t = net.tanh_act("t", s);
  net.softmax_loss("sm", net.fc("f", t, 3));
  net.finalize();

  auto uses_of = [](const graph::Layer* l) {
    return const_cast<graph::Layer*>(l)->backward_uses();
  };
  // ReLU backward reads its input (conv output).
  auto ru = uses_of(r);
  EXPECT_NE(std::find(ru.begin(), ru.end(), c->output()), ru.end());
  EXPECT_EQ(std::find(ru.begin(), ru.end(), r->output()), ru.end());
  // Sigmoid/tanh backward read their own outputs.
  auto su = uses_of(s);
  EXPECT_NE(std::find(su.begin(), su.end(), s->output()), su.end());
  auto tu = uses_of(t);
  EXPECT_NE(std::find(tu.begin(), tu.end(), t->output()), tu.end());
}

TEST(ActKinds, SigmoidTanhNetworkTrains) {
  graph::Net net;
  auto* d = net.data("d", tensor::Shape{8, 3, 8, 8});
  auto* c = net.conv("c1", d, 8, 3, 1, 1);
  auto* s = net.sigmoid("sig", c);
  auto* p = net.pool_max("p", s, 2, 2);
  auto* f1 = net.fc("f1", p, 16);
  auto* th = net.tanh_act("tanh", f1);
  net.softmax_loss("sm", net.fc("f2", th, 4));
  net.finalize();

  core::Runtime rt(net, real_opts(16ull << 20));
  train::Trainer trainer(rt, {.iterations = 30, .lr = 0.1f, .momentum = 0.9f});
  auto rep = trainer.run();
  EXPECT_LT(rep.last_loss(), rep.first_loss());
}

TEST(ActKinds, SigmoidTanhInvariantUnderPressure) {
  auto build = [] {
    auto net = std::make_unique<graph::Net>();
    auto* d = net->data("d", tensor::Shape{4, 3, 8, 8});
    auto* c = net->conv("c1", d, 8, 3, 1, 1);
    auto* s = net->sigmoid("sig", c);
    auto* c2 = net->conv("c2", s, 8, 3, 1, 1);
    auto* th = net->tanh_act("tanh", c2);
    net->softmax_loss("sm", net->fc("f", th, 4));
    net->finalize();
    return net;
  };
  auto run = [&](uint64_t cap) {
    auto net = build();
    auto o = real_opts(cap);
    o.allow_workspace = false;
    core::Runtime rt(*net, o);
    train::Trainer trainer(rt, {.iterations = 4, .lr = 0.05f});
    auto rep = trainer.run();
    return rep.losses;
  };
  auto ample = run(32ull << 20);
  auto tight = run(300ull << 10);
  EXPECT_EQ(ample, tight);
}

}  // namespace
