#include "core/model_registry.hpp"

#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace fsda::core {

namespace {

obs::Gauge& generation_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "model.generation", "id of the actively served model generation");
  return g;
}

}  // namespace

ModelRegistry::ModelRegistry(ModelRegistry&& other) noexcept {
  *this = std::move(other);
}

ModelRegistry& ModelRegistry::operator=(ModelRegistry&& other) noexcept {
  if (this == &other) return *this;
  GenerationPtr displaced_active, displaced_previous;  // released unlocked
  std::scoped_lock lk(mu_, other.mu_);
  displaced_active = std::exchange(active_, std::move(other.active_));
  displaced_previous = std::exchange(previous_, std::move(other.previous_));
  next_id_ = other.next_id_;
  published_.store(other.published_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  rollbacks_.store(other.rollbacks_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  retired_.store(other.retired_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  return *this;
}

std::uint64_t ModelRegistry::publish(std::shared_ptr<ModelGeneration> gen) {
  FSDA_CHECK_MSG(gen != nullptr, "publish of a null generation");
  GenerationPtr displaced;  // destroyed after the lock is released
  std::lock_guard<std::mutex> lk(mu_);
  gen->id = next_id_++;
  const std::uint64_t id = gen->id;
  displaced = std::exchange(previous_, std::exchange(active_, std::move(gen)));
  published_.fetch_add(1, std::memory_order_relaxed);
  generation_gauge().set(static_cast<double>(id));
  return id;
}

bool ModelRegistry::rollback() {
  std::lock_guard<std::mutex> lk(mu_);
  if (previous_ == nullptr) return false;
  std::swap(active_, previous_);
  rollbacks_.fetch_add(1, std::memory_order_relaxed);
  generation_gauge().set(static_cast<double>(active_->id));
  return true;
}

bool ModelRegistry::retire_previous() {
  GenerationPtr displaced;  // destroyed after the lock is released
  std::lock_guard<std::mutex> lk(mu_);
  if (previous_ == nullptr) return false;
  displaced = std::move(previous_);
  retired_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& retired_counter = obs::MetricsRegistry::global().counter(
      "model.generations_retired_total",
      "rollback-slot generations retired after probation passed");
  retired_counter.inc();
  return true;
}

void ModelRegistry::reset() {
  GenerationPtr displaced_active, displaced_previous;  // released unlocked
  std::lock_guard<std::mutex> lk(mu_);
  displaced_active = std::move(active_);
  displaced_previous = std::move(previous_);
  generation_gauge().set(0.0);
}

}  // namespace fsda::core
