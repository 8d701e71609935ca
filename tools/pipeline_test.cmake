# End-to-end smoke test of the iop-* pipeline, run as a CTest:
#   trace -> model -> estimate -> synthesize --verify
# Inputs: -DTRACE=... -DMODEL=... -DESTIMATE=... -DSYNTH=... -DWORKDIR=...
function(run_step)
  execute_process(COMMAND ${ARGV}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "step failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
  set(STEP_OUTPUT "${out}" PARENT_SCOPE)
endfunction()

file(MAKE_DIRECTORY ${WORKDIR})

file(REMOVE_RECURSE ${WORKDIR}/traces)
run_step(${TRACE} --app btio --class A --np 4 --config A --out traces)
# One trace file per run: the iop-trace v2 container, nothing per rank.
file(GLOB trace_files RELATIVE ${WORKDIR}/traces ${WORKDIR}/traces/*)
if(NOT trace_files STREQUAL "btio.trace")
  message(FATAL_ERROR "iop-trace should write exactly traces/btio.trace, "
                      "wrote: ${trace_files}")
endif()
run_step(${MODEL} --traces traces --app btio --out pipeline.model)
string(FIND "${STEP_OUTPUT}" "idP*rs" found)
if(found EQUAL -1)
  message(FATAL_ERROR "iop-model output missing the offset formula:\n"
                      "${STEP_OUTPUT}")
endif()

run_step(${ESTIMATE} --model pipeline.model --config B)
string(FIND "${STEP_OUTPUT}" "total estimated I/O time" found)
if(found EQUAL -1)
  message(FATAL_ERROR "iop-estimate output missing the total:\n"
                      "${STEP_OUTPUT}")
endif()

run_step(${SYNTH} --model pipeline.model --config C --verify)
string(FIND "${STEP_OUTPUT}" "round-trip fidelity: OK" found)
if(found EQUAL -1)
  message(FATAL_ERROR "iop-synthesize round trip failed:\n${STEP_OUTPUT}")
endif()

message(STATUS "pipeline smoke test passed")
