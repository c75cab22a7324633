// rc.hpp — intrusive refcounting for Value heap payloads.
//
// Every heap-allocated Value payload (long string, BigInt, list, table,
// set, record, procedure, co-expression) derives from RcBase, so a Value
// holds exactly one raw pointer and copy/destroy is a tag test plus one
// atomic refcount op — no shared_ptr control block, no separate count
// allocation, and the count shares a cache line with the payload it
// guards. Rc<T> is the owning handle used outside Value; it mirrors the
// shared_ptr surface the codebase already uses (get / -> / * / bool /
// reset / use_count) so payload-passing call sites keep compiling.
//
// RcBase MUST be the first base of every payload class: Value stores the
// RcBase* upcast of the payload pointer and reinterprets its storage as
// an Rc<T> on access, which requires the upcast to be address-preserving.
// RcBase is polymorphic precisely to pin that layout (the Itanium ABI
// places a polymorphic primary base at offset zero of every derived
// class, dynamic or not) and to make the final release a plain
// `delete` — the refcount ops themselves never dispatch virtually.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "concur/fault_injection.hpp"
#include "runtime/error.hpp"
#include "runtime/governor_hooks.hpp"

namespace congen {

/// Intrusive refcount header. `kind` carries the owner's TypeTag (as a
/// raw byte — value.hpp defines the enum) for asserts and debuggers;
/// the hot paths dispatch on the Value's own inline tag instead.
class RcBase {
 public:
  RcBase(const RcBase&) = delete;
  RcBase& operator=(const RcBase&) = delete;
  virtual ~RcBase() = default;

  /// Count value marking an immortal object (see makeImmortal).
  static constexpr std::uint32_t kImmortalBit = 1u << 30;

  /// Every payload allocation funnels through here (class-level operator
  /// new is inherited), making this the governor's second heap charge
  /// point — long strings, lists, tables, co-expression environments all
  /// derive from RcBase. Ungoverned cost: one relaxed load. Failure — a
  /// real bad_alloc or an injected RcAlloc fault — becomes the catchable
  /// Icon error 305 with the charge credited back.
  static void* operator new(std::size_t bytes) {
    governor::onHeapAlloc(bytes);  // may throw 811/816; nothing charged then
    return allocatePayload(bytes);
  }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    ::operator delete(p);
    governor::onHeapFree(bytes);
  }

  /// The fallible half of operator new, out of line: ::operator new plus
  /// the 305 conversion (bytes were already charged). Keeping it out of
  /// line also lets operator new inline into every `new T` site, so the
  /// compiler pairs the ::operator new inside it with the ::operator
  /// delete in operator delete.
  [[nodiscard]] static void* allocatePayload(std::size_t bytes);

  /// Bump the refcount. Relaxed: acquiring a new reference needs no
  /// ordering — the holder already reaches the object through a pointer
  /// that was published with the necessary synchronization. Immortal
  /// objects skip the RMW entirely: the plain load reads the same cache
  /// line the RMW would own, so the check is near-free for mortal
  /// objects, and copying an interned constant (a builtin procedure on
  /// every compiled call site) costs no lock-prefixed instruction.
  void retain() const noexcept {
    if ((refs_.load(std::memory_order_relaxed) & kImmortalBit) != 0) return;
    refs_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Drop one reference; true when this was the last one (caller
  /// deletes). Acq_rel on the decrement: release publishes this
  /// thread's payload writes to whichever thread ends up deleting, and
  /// acquire makes every other thread's (release-sequenced) writes
  /// visible before the delete. The classic release-decrement +
  /// acquire-fence split is equivalent but TSan does not model
  /// standalone fences and reports the teardown as a race; the RMW is
  /// a full barrier on x86 either way, so acq_rel costs nothing.
  /// Immortal objects are never deleted and never reach the decrement.
  [[nodiscard]] bool release() const noexcept {
    if ((refs_.load(std::memory_order_relaxed) & kImmortalBit) != 0) return false;
    return refs_.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }

  /// Pin this object for the life of the process: refcount ops become
  /// no-ops and the final release never fires. Only for objects owned by
  /// a never-destroyed registry (the builtin table) — the owner must
  /// stay reachable so leak checkers see the payload as live, and the
  /// call must happen before the object is shared across threads.
  void makeImmortal() const noexcept {
    refs_.store(kImmortalBit, std::memory_order_relaxed);
  }
  [[nodiscard]] bool isImmortal() const noexcept {
    return (refs_.load(std::memory_order_relaxed) & kImmortalBit) != 0;
  }

  [[nodiscard]] std::uint32_t refCount() const noexcept {
    return refs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint8_t rcKind() const noexcept { return kind_; }

 protected:
  explicit RcBase(std::uint8_t kind) noexcept : kind_(kind) {}

 private:
  mutable std::atomic<std::uint32_t> refs_{1};
  std::uint8_t kind_;
};

/// Owning intrusive pointer. Single raw pointer wide; copying bumps the
/// payload's embedded count. Constructing from a raw T* retains (safe
/// for intrusive counts — there is no control block to duplicate), which
/// lets call sites pass `value.list()` wherever a ListPtr is expected.
template <class T>
class Rc {
 public:
  Rc() noexcept = default;
  Rc(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)
  Rc(T* p) noexcept : p_(p) {     // NOLINT(google-explicit-constructor)
    if (p_ != nullptr) p_->retain();
  }
  /// Take ownership of a fresh object (refcount already 1) without a bump.
  static Rc adopt(T* p) noexcept {
    Rc r;
    r.p_ = p;
    return r;
  }

  Rc(const Rc& o) noexcept : p_(o.p_) {
    if (p_ != nullptr) p_->retain();
  }
  Rc(Rc&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
  template <class U>
    requires std::convertible_to<U*, T*>
  Rc(Rc<U> o) noexcept : p_(o.detach()) {}  // NOLINT(google-explicit-constructor)

  Rc& operator=(const Rc& o) noexcept {
    if (o.p_ != nullptr) o.p_->retain();
    T* old = std::exchange(p_, o.p_);
    if (old != nullptr && old->release()) delete old;
    return *this;
  }
  Rc& operator=(Rc&& o) noexcept {
    T* old = std::exchange(p_, std::exchange(o.p_, nullptr));
    if (old != nullptr && old != p_ && old->release()) delete old;
    return *this;
  }
  Rc& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  ~Rc() { reset(); }

  void reset() noexcept {
    if (p_ != nullptr) {
      if (p_->release()) delete p_;
      p_ = nullptr;
    }
  }
  /// Surrender the raw pointer without releasing (ownership moves out).
  [[nodiscard]] T* detach() noexcept { return std::exchange(p_, nullptr); }

  [[nodiscard]] T* get() const noexcept { return p_; }
  [[nodiscard]] T* operator->() const noexcept { return p_; }
  [[nodiscard]] T& operator*() const noexcept { return *p_; }
  explicit operator bool() const noexcept { return p_ != nullptr; }
  [[nodiscard]] long use_count() const noexcept {
    return p_ != nullptr ? static_cast<long>(p_->refCount()) : 0;
  }

  friend bool operator==(const Rc& a, const Rc& b) noexcept { return a.p_ == b.p_; }
  friend bool operator!=(const Rc& a, const Rc& b) noexcept { return a.p_ != b.p_; }
  friend bool operator==(const Rc& a, std::nullptr_t) noexcept { return a.p_ == nullptr; }
  friend bool operator!=(const Rc& a, std::nullptr_t) noexcept { return a.p_ != nullptr; }

 private:
  T* p_ = nullptr;
};

/// static_pointer_cast analogue (ownership transfers; no refcount ops).
template <class T, class U>
[[nodiscard]] Rc<T> rcStaticCast(Rc<U> o) noexcept {
  return Rc<T>::adopt(static_cast<T*>(o.detach()));
}

/// make_shared analogue: one allocation, refcount starts at 1.
template <class T, class... Args>
[[nodiscard]] Rc<T> makeRc(Args&&... args) {
  return Rc<T>::adopt(new T(std::forward<Args>(args)...));
}

}  // namespace congen
