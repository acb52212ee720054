// Shared ownership of one value that never leaves the shard that made it:
// a zone's decoded PCM (SharedPcm, src/audio/pcm.h) and the zone batch's
// decode cell (src/speaker/speaker.h). The refcount is a plain int — the
// same rule as Buffer's default path (src/base/buffer.h), with no atomic op
// on the hot path — and debug builds apply Buffer's owner check: the first
// shard scope (BufferOwnerScope) to share a value owns it, and a share or
// release from any other shard asserts. Code outside every shard scope
// (setup, tests, barrier interludes) is exempt.
//
// Unlike Buffer there is no cross-shard mode: a value that must cross a
// shard boundary does not belong in a LocalRef.
#ifndef SRC_BASE_LOCAL_REF_H_
#define SRC_BASE_LOCAL_REF_H_

#include <cassert>
#include <cstdint>
#include <utility>

#include "src/base/buffer.h"

namespace espk {

template <typename T>
class LocalRef {
 public:
  LocalRef() = default;  // Null: false in a boolean context.

  template <typename... Args>
  static LocalRef Make(Args&&... args) {
    return LocalRef(new Rep(std::forward<Args>(args)...));
  }

  LocalRef(const LocalRef& other) : rep_(other.rep_) { Ref(); }
  LocalRef(LocalRef&& other) noexcept : rep_(other.rep_) {
    other.rep_ = nullptr;
  }
  LocalRef& operator=(LocalRef other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~LocalRef() { Unref(); }

  T* operator->() const { return &rep_->value; }
  explicit operator bool() const { return rep_ != nullptr; }

  // Handles sharing this value; 0 for a null ref.
  int use_count() const { return rep_ != nullptr ? rep_->refcount : 0; }

 private:
  struct Rep {
    template <typename... Args>
    explicit Rep(Args&&... args) : value(std::forward<Args>(args)...) {}
    T value;
    int refcount = 1;
#ifndef NDEBUG
    uint32_t owner = 0;  // First shard to share or release; 0 = unclaimed.
#endif
  };

  explicit LocalRef(Rep* rep) : rep_(rep) {}

  static void CheckOwner(Rep* rep) {
#ifndef NDEBUG
    const bool same_shard = BufferOwnerScope::Claim(&rep->owner);
    assert(same_shard && "LocalRef shared across shards");
#else
    (void)rep;
#endif
  }

  void Ref() {
    if (rep_ != nullptr) {
      CheckOwner(rep_);
      ++rep_->refcount;
    }
  }
  void Unref() {
    if (rep_ != nullptr) {
      CheckOwner(rep_);
      if (--rep_->refcount == 0) {
        delete rep_;
      }
    }
  }

  Rep* rep_ = nullptr;
};

}  // namespace espk

#endif  // SRC_BASE_LOCAL_REF_H_
