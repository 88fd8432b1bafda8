// A minimal expected-like Result<T, E>.
//
// gcc 12 does not ship std::expected (C++23), so the library carries its own
// small, value-semantic result type. Error paths inside the simulator are
// ordinary values (a simulated fault is data, not a C++ exception), so the
// library reserves exceptions for programmer errors at API boundaries.
#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace faultstudy::util {

/// Tag wrapper so Result<T, E> construction is unambiguous even when T and E
/// are the same type.
template <typename E>
struct Err {
  E value;
};

template <typename E>
Err(E) -> Err<E>;

template <typename T, typename E = std::string>
class [[nodiscard]] Result {
 public:
  // Implicit construction from a success value or an Err<E> keeps call
  // sites readable: `return parsed;` / `return Err{"bad field"};`.
  Result(T value) : payload_(std::in_place_index<0>, std::move(value)) {}
  Result(Err<E> err) : payload_(std::in_place_index<1>, std::move(err.value)) {}

  bool ok() const noexcept { return payload_.index() == 0; }
  explicit operator bool() const noexcept { return ok(); }

  const T& value() const& {
    assert(ok());
    return std::get<0>(payload_);
  }
  T& value() & {
    assert(ok());
    return std::get<0>(payload_);
  }
  T&& value() && {
    assert(ok());
    return std::get<0>(std::move(payload_));
  }

  const E& error() const& {
    assert(!ok());
    return std::get<1>(payload_);
  }

  /// Applies `fn` to the success value, propagating errors unchanged.
  template <typename Fn>
  auto map(Fn&& fn) const& -> Result<decltype(fn(std::declval<const T&>())), E> {
    if (ok()) return fn(value());
    return Err<E>{error()};
  }

 private:
  std::variant<T, E> payload_;
};

}  // namespace faultstudy::util
