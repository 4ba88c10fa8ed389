// JSON writer and the portal snapshot exporter.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "opwat/eval/portal.hpp"
#include "opwat/eval/scenario.hpp"
#include "opwat/infer/pipeline.hpp"
#include "opwat/serve/catalog.hpp"
#include "opwat/util/json.hpp"

namespace {

using namespace opwat;
using util::json_escape;
using util::json_writer;

TEST(JsonEscape, PassesPlainText) { EXPECT_EQ(json_escape("hello"), "hello"); }

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string_view{"\x01", 1}), "\\u0001");
}

TEST(JsonWriter, EmptyObject) {
  json_writer w;
  w.begin_object().end_object();
  EXPECT_EQ(w.str(), "{}");
  EXPECT_TRUE(w.complete());
}

TEST(JsonWriter, ObjectWithMixedValues) {
  json_writer w;
  w.begin_object();
  w.key("s").value("x");
  w.key("i").value(42);
  w.key("d").value(1.5);
  w.key("b").value(true);
  w.key("n").null();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"s":"x","i":42,"d":1.5,"b":true,"n":null})");
}

TEST(JsonWriter, NestedArraysAndObjects) {
  json_writer w;
  w.begin_object();
  w.key("list").begin_array();
  w.value(1).value(2);
  w.begin_object().key("k").value("v").end_object();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"list":[1,2,{"k":"v"}]})");
}

TEST(JsonWriter, TopLevelArray) {
  json_writer w;
  w.begin_array().value("a").value("b").end_array();
  EXPECT_EQ(w.str(), R"(["a","b"])");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  json_writer w;
  w.begin_array().value(std::nan("")).end_array();
  EXPECT_EQ(w.str(), "[null]");
}

TEST(JsonWriter, IncompleteIsFlagged) {
  json_writer w;
  w.begin_object();
  EXPECT_FALSE(w.complete());
}

// --- misuse is rejected instead of silently emitting invalid JSON ----------

TEST(JsonWriterMisuse, KeyOutsideObjectThrows) {
  {
    json_writer w;
    EXPECT_THROW(w.key("k"), std::logic_error);  // top level
  }
  {
    json_writer w;
    w.begin_array();
    EXPECT_THROW(w.key("k"), std::logic_error);  // inside an array
  }
}

TEST(JsonWriterMisuse, DoubleKeyThrows) {
  json_writer w;
  w.begin_object();
  w.key("a");
  EXPECT_THROW(w.key("b"), std::logic_error);
}

TEST(JsonWriterMisuse, ValueInObjectWithoutKeyThrows) {
  json_writer w;
  w.begin_object();
  EXPECT_THROW(w.value(1), std::logic_error);
  EXPECT_THROW(w.begin_array(), std::logic_error);
  EXPECT_THROW(w.begin_object(), std::logic_error);
  EXPECT_THROW(w.null(), std::logic_error);
}

TEST(JsonWriterMisuse, DanglingKeyAtEndThrows) {
  json_writer w;
  w.begin_object();
  w.key("orphan");
  EXPECT_THROW(w.end_object(), std::logic_error);
  // Supplying the value heals the writer.
  w.value(1).end_object();
  EXPECT_EQ(w.str(), R"({"orphan":1})");
  EXPECT_TRUE(w.complete());
}

TEST(JsonWriterMisuse, MismatchedEndThrows) {
  {
    json_writer w;
    w.begin_object();
    EXPECT_THROW(w.end_array(), std::logic_error);
  }
  {
    json_writer w;
    w.begin_array();
    EXPECT_THROW(w.end_object(), std::logic_error);
  }
  {
    json_writer w;
    EXPECT_THROW(w.end_object(), std::logic_error);  // nothing open
    EXPECT_THROW(w.end_array(), std::logic_error);
  }
}

TEST(JsonWriterMisuse, WritesAfterCompleteDocumentThrow) {
  json_writer w;
  w.begin_object().end_object();
  ASSERT_TRUE(w.complete());
  EXPECT_THROW(w.value(1), std::logic_error);
  EXPECT_THROW(w.begin_object(), std::logic_error);
  EXPECT_THROW(w.begin_array(), std::logic_error);
  EXPECT_EQ(w.str(), "{}");  // the finished document is untouched
}

class PortalTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    s_ = new eval::scenario{eval::scenario::build(eval::small_scenario_config(55))};
    pr_ = new infer::pipeline_result{s_->run_inference()};
    cat_ = new serve::catalog;
    cat_->ingest(s_->w, s_->view, *pr_, "t-1");
  }
  static void TearDownTestSuite() {
    delete cat_;
    delete pr_;
    delete s_;
  }
  /// The portal snapshot of the suite's one epoch.
  static std::string snapshot(const eval::portal_options& opt = {}) {
    return eval::portal_snapshot_json(*cat_, "t-1", opt);
  }
  static eval::scenario* s_;
  static infer::pipeline_result* pr_;
  static serve::catalog* cat_;
};

eval::scenario* PortalTest::s_ = nullptr;
infer::pipeline_result* PortalTest::pr_ = nullptr;
serve::catalog* PortalTest::cat_ = nullptr;

TEST_F(PortalTest, SnapshotContainsEveryScopedIxp) {
  const auto doc = snapshot();
  EXPECT_NE(doc.find(R"("snapshot":"t-1")"), std::string::npos);
  for (const auto x : pr_->scope)
    EXPECT_NE(doc.find("\"" + s_->w.ixps[x].name + "\""), std::string::npos)
        << s_->w.ixps[x].name;
}

TEST_F(PortalTest, TotalsMatchInferenceMap) {
  const auto doc = snapshot();
  const auto expect_count = [&](const char* key, std::size_t n) {
    const std::string needle = std::string{"\""} + key + "\":" + std::to_string(n);
    EXPECT_NE(doc.find(needle), std::string::npos) << needle;
  };
  expect_count("local", pr_->inferences.count(infer::peering_class::local));
  expect_count("remote", pr_->inferences.count(infer::peering_class::remote));
}

TEST_F(PortalTest, InterfacesCarryClassAndEvidence) {
  const auto doc = snapshot();
  EXPECT_NE(doc.find(R"("class":"local")"), std::string::npos);
  EXPECT_NE(doc.find(R"("class":"remote")"), std::string::npos);
  EXPECT_NE(doc.find(R"("evidence":)"), std::string::npos);
  EXPECT_NE(doc.find(R"("rtt_min_ms":)"), std::string::npos);
}

TEST_F(PortalTest, OptionsTrimSections) {
  eval::portal_options opt;
  opt.include_interfaces = false;
  opt.include_facilities = false;
  const auto doc = snapshot(opt);
  EXPECT_EQ(doc.find(R"("members":)"), std::string::npos);
  EXPECT_EQ(doc.find(R"("facilities":)"), std::string::npos);
}

TEST_F(PortalTest, GeographicFootprintIncluded) {
  const auto doc = snapshot();
  EXPECT_NE(doc.find(R"("lat":)"), std::string::npos);
  EXPECT_NE(doc.find(R"("lon":)"), std::string::npos);
}

}  // namespace
