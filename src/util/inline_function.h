// A move-only callable with small-buffer optimization, used on the
// simulator hot path. The common event capture — a node pointer plus a
// shared payload view, or a service queue's `this` and a time — fits in the
// 64-byte inline buffer, so scheduling such an event never touches the
// allocator; larger captures fall back to one heap cell, matching
// std::function's behavior.
#ifndef SDR_SRC_UTIL_INLINE_FUNCTION_H_
#define SDR_SRC_UTIL_INLINE_FUNCTION_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace sdr {

template <typename Signature>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  static constexpr size_t kInlineSize = 64;

  InlineFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      *reinterpret_cast<Fn**>(buf_) = new Fn(std::forward<F>(f));
      ops_ = &kHeapOps<Fn>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void* buf, Args&&... args);
    void (*move)(void* dst, void* src);  // src is left destroyed
    void (*destroy)(void* buf);
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* buf, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(buf)))(
            std::forward<Args>(args)...);
      },
      [](void* dst, void* src) {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* buf) { std::launder(reinterpret_cast<Fn*>(buf))->~Fn(); }};

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* buf, Args&&... args) -> R {
        return (**std::launder(reinterpret_cast<Fn**>(buf)))(
            std::forward<Args>(args)...);
      },
      [](void* dst, void* src) {
        *reinterpret_cast<Fn**>(dst) =
            *std::launder(reinterpret_cast<Fn**>(src));
      },
      [](void* buf) { delete *std::launder(reinterpret_cast<Fn**>(buf)); }};

  void MoveFrom(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->move(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace sdr

#endif  // SDR_SRC_UTIL_INLINE_FUNCTION_H_
