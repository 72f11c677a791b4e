// Microbenchmarks: crypto substrate throughput (google-benchmark).
//
// Not a paper figure; establishes that posting-element sealing is not the
// bottleneck of the experiment harness and documents implementation speed.
// BM_CryptoOpen times the sealed-box primitive alone on raw keys;
// BM_OpenPostingElement and BM_SealPostingElement time the element calls
// the client makes, key lookup and derivation through a KeyStore included.

#include <benchmark/benchmark.h>

#include <string>

#include "crypto/aes.h"
#include "crypto/ctr.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "zerber/posting_element.h"

namespace {

void BM_AesEncryptBlock(benchmark::State& state) {
  auto aes = zr::crypto::Aes::Create(std::string(16, 'k'));
  zr::crypto::AesBlock block{};
  for (auto _ : state) {
    aes->EncryptBlock(&block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesEncryptBlock);

void BM_Sha256(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    auto digest = zr::crypto::Sha256::Hash(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  std::string key(32, 'k');
  std::string data(static_cast<size_t>(state.range(0)), 'm');
  for (auto _ : state) {
    auto mac = zr::crypto::HmacSha256(key, data);
    benchmark::DoNotOptimize(mac);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(32)->Arg(1024);

void BM_SealPostingElementSizedPayload(benchmark::State& state) {
  std::string enc_key(16, 'e'), mac_key(32, 'm');
  std::string payload(static_cast<size_t>(state.range(0)), 'p');
  uint64_t nonce = 0;
  for (auto _ : state) {
    auto sealed = zr::crypto::Seal(enc_key, mac_key, nonce++, payload);
    benchmark::DoNotOptimize(sealed);
  }
}
BENCHMARK(BM_SealPostingElementSizedPayload)->Arg(13)->Arg(64);

void BM_CryptoOpen(benchmark::State& state) {
  std::string enc_key(16, 'e'), mac_key(32, 'm');
  auto sealed = zr::crypto::Seal(enc_key, mac_key, 7, "typical-payload");
  for (auto _ : state) {
    auto opened = zr::crypto::Open(enc_key, mac_key, *sealed);
    benchmark::DoNotOptimize(opened);
  }
}
BENCHMARK(BM_CryptoOpen);

// The group whose keys the element benches use; the key store holds only
// it, as a one-group client's does.
constexpr zr::crypto::GroupId kGroup = 3;

const zr::zerber::PostingPayload kPayload{/*term=*/1234, /*doc=*/56789,
                                          /*score=*/0.0421};

void BM_OpenPostingElement(benchmark::State& state) {
  zr::crypto::KeyStore keys("micro-crypto");
  zr::Status created = keys.CreateGroup(kGroup);
  if (!created.ok()) {
    state.SkipWithError(created.ToString().c_str());
    return;
  }
  auto element = zr::zerber::SealPostingElement(kPayload, kGroup, 0.5, &keys);
  if (!element.ok()) {
    state.SkipWithError(element.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto opened = zr::zerber::OpenPostingElement(*element, keys);
    benchmark::DoNotOptimize(opened);
  }
}
BENCHMARK(BM_OpenPostingElement);

void BM_SealPostingElement(benchmark::State& state) {
  zr::crypto::KeyStore keys("micro-crypto");
  zr::Status created = keys.CreateGroup(kGroup);
  if (!created.ok()) {
    state.SkipWithError(created.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto element = zr::zerber::SealPostingElement(kPayload, kGroup, 0.5, &keys);
    benchmark::DoNotOptimize(element);
  }
}
BENCHMARK(BM_SealPostingElement);

void BM_DrbgBytes(benchmark::State& state) {
  zr::crypto::Drbg drbg("bench");
  std::string out;
  for (auto _ : state) {
    out.clear();
    drbg.Generate(static_cast<size_t>(state.range(0)), &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DrbgBytes)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
