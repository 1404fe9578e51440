#include "envs/cartpole.h"
#include "envs/registry.h"
#include "envs/synth_arcade.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace xt {
namespace {

TEST(CartPole, ResetReturnsSmallState) {
  CartPole env;
  const auto obs = env.reset(1);
  ASSERT_EQ(obs.size(), 4u);
  for (float v : obs) EXPECT_LE(std::abs(v), 0.05f);
}

TEST(CartPole, DeterministicGivenSeed) {
  CartPole a, b;
  EXPECT_EQ(a.reset(42), b.reset(42));
  for (int i = 0; i < 50; ++i) {
    const auto ra = a.step(i % 2);
    const auto rb = b.step(i % 2);
    EXPECT_EQ(ra.observation, rb.observation);
    EXPECT_EQ(ra.done, rb.done);
    if (ra.done) break;
  }
}

TEST(CartPole, DifferentSeedsDiffer) {
  CartPole a, b;
  EXPECT_NE(a.reset(1), b.reset(2));
}

TEST(CartPole, ConstantActionFallsOver) {
  CartPole env;
  (void)env.reset(3);
  int steps = 0;
  StepResult r;
  do {
    r = env.step(1);
    ++steps;
  } while (!r.done && steps < 500);
  EXPECT_TRUE(r.done);
  EXPECT_LT(steps, 200);  // always pushing right topples quickly
}

TEST(CartPole, RewardIsOnePerStep) {
  CartPole env;
  (void)env.reset(5);
  const auto r = env.step(0);
  EXPECT_FLOAT_EQ(r.reward, 1.0f);
}

TEST(CartPole, BalancedPhysicsRespondsToForce) {
  CartPole env;
  (void)env.reset(7);
  const auto r1 = env.step(1);  // push right: cart velocity increases
  EXPECT_GT(r1.observation[1], 0.0f);
  CartPole env2;
  (void)env2.reset(7);
  const auto r2 = env2.step(0);  // push left
  EXPECT_LT(r2.observation[1], 0.0f);
}

TEST(Registry, MakesAllBuiltins) {
  for (const char* name : {"CartPole", "SynthBreakout", "SynthQbert",
                           "SynthSpaceInvaders", "SynthBeamRider"}) {
    auto env = make_environment(name);
    ASSERT_NE(env, nullptr) << name;
    EXPECT_EQ(env->name(), name);
  }
}

TEST(Registry, UnknownNameReturnsNull) {
  EXPECT_EQ(make_environment("Atari2600"), nullptr);
}

TEST(Registry, CustomRegistrationWorks) {
  register_environment("MyCartPole", [] { return std::make_unique<CartPole>(); });
  auto env = make_environment("MyCartPole");
  ASSERT_NE(env, nullptr);
  EXPECT_EQ(env->name(), "CartPole");
  const auto names = registered_environments();
  EXPECT_NE(std::find(names.begin(), names.end(), "MyCartPole"), names.end());
}

TEST(Registry, FactoryMayCallMakeEnvironmentItself) {
  // Wrapper factories (TimedEnv et al.) recursively resolve their inner
  // environment by name; the registry must not hold its lock across the
  // factory call (regression test for a self-deadlock).
  register_environment("WrappedCartPole",
                       [] { return make_environment("CartPole"); });
  auto env = make_environment("WrappedCartPole");
  ASSERT_NE(env, nullptr);
  EXPECT_EQ(env->name(), "CartPole");
}

// Generic MDP contract checks over every registered environment.
class EnvContractTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EnvContractTest, ObservationDimMatchesReset) {
  auto env = make_environment(GetParam());
  ASSERT_NE(env, nullptr);
  EXPECT_EQ(env->reset(1).size(), env->observation_dim());
}

TEST_P(EnvContractTest, StepsReturnWellFormedResults) {
  auto env = make_environment(GetParam());
  Rng rng(17);
  auto obs = env->reset(2);
  for (int i = 0; i < 500; ++i) {
    const auto action =
        static_cast<std::int32_t>(rng.uniform_index(env->action_count()));
    const StepResult r = env->step(action);
    ASSERT_EQ(r.observation.size(), env->observation_dim());
    for (float v : r.observation) {
      ASSERT_FALSE(std::isnan(v));
      ASSERT_FALSE(std::isinf(v));
    }
    if (r.done) {
      obs = env->reset(3 + i);
    }
  }
}

TEST_P(EnvContractTest, DeterministicUnderSameSeedAndActions) {
  auto a = make_environment(GetParam());
  auto b = make_environment(GetParam());
  ASSERT_EQ(a->reset(11), b->reset(11));
  Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    const auto action =
        static_cast<std::int32_t>(rng.uniform_index(a->action_count()));
    const auto ra = a->step(action);
    const auto rb = b->step(action);
    ASSERT_EQ(ra.observation, rb.observation);
    ASSERT_FLOAT_EQ(ra.reward, rb.reward);
    ASSERT_EQ(ra.done, rb.done);
    if (ra.done) {
      ASSERT_EQ(a->reset(99 + i), b->reset(99 + i));
    }
  }
}

TEST_P(EnvContractTest, EpisodesTerminate) {
  auto env = make_environment(GetParam());
  Rng rng(31);
  (void)env->reset(4);
  int steps = 0;
  while (steps < 10'000) {
    const auto action =
        static_cast<std::int32_t>(rng.uniform_index(env->action_count()));
    if (env->step(action).done) break;
    ++steps;
  }
  EXPECT_LT(steps, 10'000);
}

INSTANTIATE_TEST_SUITE_P(AllEnvs, EnvContractTest,
                         ::testing::Values("CartPole", "SynthBreakout",
                                           "SynthQbert", "SynthSpaceInvaders",
                                           "SynthBeamRider"));

// Arcade-specific behaviour.

TEST(SynthArcade, ObservationDimIs128) {
  for (const char* name : {"SynthBreakout", "SynthQbert", "SynthSpaceInvaders",
                           "SynthBeamRider"}) {
    EXPECT_EQ(make_environment(name)->observation_dim(), 128u) << name;
  }
}

TEST(SynthBreakout, TrackingPaddleOutscoresRandom) {
  // A heuristic that follows the ball should collect far more reward than
  // random play: the game is genuinely learnable.
  const auto play = [](bool track, std::uint64_t seed) {
    SynthBreakout env;
    Rng rng(seed);
    auto obs = env.reset(seed);
    double total = 0.0;
    for (int i = 0; i < 2'000; ++i) {
      std::int32_t action;
      if (track) {
        // paddle one-hot in [0,16), ball x one-hot in [16,32)
        int paddle = 0, ball = 0;
        for (int c = 0; c < 16; ++c) {
          if (obs[c] > 0.5f) paddle = c;
          if (obs[16 + c] > 0.5f) ball = c;
        }
        action = ball < paddle ? 0 : (ball > paddle ? 2 : 1);
      } else {
        action = static_cast<std::int32_t>(rng.uniform_index(3));
      }
      const auto r = env.step(action);
      total += r.reward;
      if (r.done) break;
      obs = r.observation;
    }
    return total;
  };
  double tracked = 0.0, random_play = 0.0;
  for (std::uint64_t s = 1; s <= 5; ++s) {
    tracked += play(true, s);
    random_play += play(false, s);
  }
  EXPECT_GT(tracked, random_play * 1.5);
}

TEST(SynthBeamRider, FiringInLaneScores) {
  SynthBeamRider env;
  (void)env.reset(1);
  double total = 0.0;
  // Fire constantly: should eventually destroy spawned enemies.
  for (int i = 0; i < 500; ++i) {
    const auto r = env.step(1);
    total += r.reward;
    if (r.done) break;
  }
  EXPECT_GT(total, 0.0);
}

TEST(SynthQbert, PaintingRewards) {
  SynthQbert env;
  (void)env.reset(2);
  // Hop down-left then down-right repeatedly: paints fresh cubes.
  double total = 0.0;
  for (int i = 0; i < 12 && total <= 0.0; ++i) {
    total += env.step(i % 2 == 0 ? 2 : 3).reward;
  }
  EXPECT_GT(total, 0.0);
}

TEST(SynthSpaceInvaders, LosingAllLivesEndsEpisode) {
  SynthSpaceInvaders env;
  (void)env.reset(3);
  // Stand still and never shoot: bombs / invasion end the episode.
  StepResult r;
  int steps = 0;
  do {
    r = env.step(0);
    ++steps;
  } while (!r.done && steps < 2'000);
  EXPECT_TRUE(r.done);
}

}  // namespace
}  // namespace xt
