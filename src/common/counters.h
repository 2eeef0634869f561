// Named counter lists: a stats struct of int64 counters lists them as a
// constexpr array of {name, member pointer} (its kFields), which its merge
// and delta rules and any codec that ships it (serialize/sections.h)
// iterate instead of naming each counter.

#ifndef FLOR_COMMON_COUNTERS_H_
#define FLOR_COMMON_COUNTERS_H_

#include <cstddef>
#include <cstdint>

namespace flor {

template <typename T>
struct CounterField {
  const char* name;
  int64_t T::*member;
};

template <typename T, size_t N>
T& AddCounters(T& into, const T& from, const CounterField<T> (&fields)[N]) {
  for (const CounterField<T>& f : fields) into.*f.member += from.*f.member;
  return into;
}

template <typename T, size_t N>
T& SubtractCounters(T& from, const T& before,
                    const CounterField<T> (&fields)[N]) {
  for (const CounterField<T>& f : fields) from.*f.member -= before.*f.member;
  return from;
}

}  // namespace flor

#endif  // FLOR_COMMON_COUNTERS_H_
